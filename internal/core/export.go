package core

import (
	"encoding/json"
	"fmt"
	"io"

	"fairflow/internal/gauge"
	"fairflow/internal/provenance"
)

// ResearchObject is the distributable reuse bundle the provenance gauge's
// exportability tier culminates in: the workflow document, its components'
// gauge assessments, and the provenance filtered by an export policy. "Not
// all provenance that is useful to the original author is appropriate to
// include in a distributable, reusable research object" — the policy decides.
type ResearchObject struct {
	Workflow *Workflow `json:"workflow"`
	// Provenance is the filtered execution history, one record set per
	// exported campaign.
	Provenance []provenance.ResearchObject `json:"provenance,omitempty"`
	// DebtSummary records the reuse cost a recipient should expect.
	DebtSummary DebtSummary `json:"debt_summary"`
}

// DebtSummary is the recipient-facing reuse cost estimate.
type DebtSummary struct {
	Interventions int     `json:"interventions_per_reuse"`
	Minutes       float64 `json:"minutes_per_reuse"`
	// UnlockedCapabilities lists automation every component supports
	// (intersection across components).
	UnlockedCapabilities []gauge.Capability `json:"unlocked_capabilities"`
}

// ExportResearchObject bundles the workflow with filtered provenance for
// the given campaigns. Components must pass validation; the export fails
// rather than ship an inconsistent object.
func ExportResearchObject(w *Workflow, store *provenance.Store, campaigns []string, policy provenance.ExportPolicy) (*ResearchObject, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	ro := &ResearchObject{Workflow: w}
	for _, campaign := range campaigns {
		filtered, err := provenance.Export(store, campaign, policy)
		if err != nil {
			return nil, fmt.Errorf("core: exporting campaign %q: %w", campaign, err)
		}
		ro.Provenance = append(ro.Provenance, filtered)
	}
	iv, minutes := w.Debt()
	ro.DebtSummary = DebtSummary{Interventions: iv, Minutes: minutes}
	// Capabilities every component unlocks — what a recipient can rely on.
	for _, c := range gauge.Capabilities() {
		all := true
		for _, comp := range w.Components {
			if !gauge.Unlocked(comp.Assessment.Vector, c) {
				all = false
				break
			}
		}
		if all {
			ro.DebtSummary.UnlockedCapabilities = append(ro.DebtSummary.UnlockedCapabilities, c)
		}
	}
	return ro, nil
}

// WriteJSON serialises the research object.
func (ro *ResearchObject) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ro)
}
