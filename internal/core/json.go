package core

import (
	"encoding/json"
	"fmt"
	"io"
)

// LoadWorkflow parses and validates a workflow document.
func LoadWorkflow(r io.Reader) (*Workflow, error) {
	var w Workflow
	if err := json.NewDecoder(r).Decode(&w); err != nil {
		return nil, fmt.Errorf("core: parsing workflow: %w", err)
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return &w, nil
}

// ReferencedFormats returns the sorted set of format IDs the workflow's
// ports mention — what a planner's registry must know about.
func (w *Workflow) ReferencedFormats() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range w.Components {
		for _, p := range c.Ports {
			if p.FormatID != "" && !seen[p.FormatID] {
				seen[p.FormatID] = true
				out = append(out, p.FormatID)
			}
		}
	}
	sortStrings(out)
	return out
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
