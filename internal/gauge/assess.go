package gauge

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// Assessment is the durable metadata record attaching a gauge vector to a
// concrete workflow component, together with the evidence for each achieved
// tier. Assessments are what a registry stores and what automation consumes.
type Assessment struct {
	Component  string            `json:"component"`
	Vector     Vector            `json:"vector"`
	Evidence   map[Axis][]string `json:"evidence,omitempty"`
	Notes      string            `json:"notes,omitempty"`
	AssessedAt time.Time         `json:"assessed_at,omitempty"`
}

// NewAssessment creates an all-unknown assessment for the named component.
func NewAssessment(component string) *Assessment {
	return &Assessment{
		Component: component,
		Vector:    NewVector(),
		Evidence:  map[Axis][]string{},
	}
}

// Attest raises the component to tier t on axis a, recording the evidence
// string (a pointer to the artifact that justifies the tier: a schema file,
// a generation model, a provenance log).
func (as *Assessment) Attest(a Axis, t Tier, evidence string) error {
	if err := as.Vector.Raise(a, t); err != nil {
		return err
	}
	if evidence != "" {
		as.Evidence[a] = append(as.Evidence[a], evidence)
	}
	return nil
}

// Validate checks the vector's internal consistency.
func (as *Assessment) Validate() error {
	if as.Component == "" {
		return fmt.Errorf("gauge: assessment missing component name")
	}
	return as.Vector.Validate()
}

// Capability names an automation capability that gauge metadata can unlock.
// Capabilities are the bridge from passive metadata to the "machine
// actionable" automation of Section III-A.
type Capability string

// The automation capabilities exercised by the experiments in Section V.
const (
	// CapAutoConvert: automated format conversion between this component's
	// output and another's input (GWAS wrangling, Section V-A).
	CapAutoConvert Capability = "auto-format-conversion"
	// CapGenerateIngress: generate data-ingress adapters from templates.
	CapGenerateIngress Capability = "generate-ingress"
	// CapGenerateComms: generate the communication components of a
	// collection/selection/forwarding subgraph (Section V-C).
	CapGenerateComms Capability = "generate-communication-code"
	// CapTemplateLaunch: create build/launch/execution templates.
	CapTemplateLaunch Capability = "templatized-launch"
	// CapCampaignSweep: lift component variables into campaign parameter
	// sweeps (Cheetah composition, Section V-D).
	CapCampaignSweep Capability = "campaign-parameter-sweep"
	// CapDynamicPolicy: install new behaviour policies at runtime via a
	// control channel (Section V-C) or policy-driven middleware (V-B).
	CapDynamicPolicy Capability = "runtime-policy-install"
	// CapResumableExecution: automatically resume partially completed
	// campaigns from provenance (Section V-D).
	CapResumableExecution Capability = "resumable-execution"
	// CapExportObject: package the component as a distributable, reusable
	// research object with filtered provenance.
	CapExportObject Capability = "export-research-object"
)

// capabilityRequirements maps each capability to the minimum gauge vector
// that unlocks it. These thresholds encode the paper's narrative: e.g.
// generating communication code needs "sufficient knowledge of data access
// patterns, data schema and semantics, as well as the degrees of granularity
// and customizability allowed by the software stack" (Section V-C).
var capabilityRequirements = map[Capability]Vector{
	CapAutoConvert:        {DataAccess: 2, DataSchema: 3},
	CapGenerateIngress:    {DataAccess: 2, DataSchema: 2, Granularity: 2},
	CapGenerateComms:      {DataAccess: 2, DataSchema: 3, DataSemantics: 1, Granularity: 2, Customizability: 2},
	CapTemplateLaunch:     {Granularity: 2, Customizability: 1},
	CapCampaignSweep:      {Granularity: 2, Customizability: 2, Provenance: 2},
	CapDynamicPolicy:      {DataSemantics: 1, Granularity: 3, Customizability: 2},
	CapResumableExecution: {Granularity: 2, Provenance: 2},
	CapExportObject:       {DataSchema: 1, Granularity: 1, Customizability: 1, Provenance: 3},
}

// Capabilities lists every defined capability in stable order.
func Capabilities() []Capability {
	out := make([]Capability, 0, len(capabilityRequirements))
	for c := range capabilityRequirements {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Unlocked reports whether the vector satisfies the capability's
// requirements.
func Unlocked(v Vector, c Capability) bool {
	req, ok := capabilityRequirements[c]
	return ok && v.Meets(req)
}

// UnlockedCapabilities returns every capability the vector satisfies, in
// stable order.
func UnlockedCapabilities(v Vector) []Capability {
	var out []Capability
	for _, c := range Capabilities() {
		if Unlocked(v, c) {
			out = append(out, c)
		}
	}
	return out
}

// MissingFor returns, per axis, the shortfall between the vector and the
// capability requirement — the concrete metadata work that would unlock the
// capability. Nil map plus ok=false for unknown capabilities.
func MissingFor(v Vector, c Capability) (map[Axis]Tier, bool) {
	req, ok := capabilityRequirements[c]
	if !ok {
		return nil, false
	}
	return v.Gaps(req), true
}

// Registry stores assessments by component name and answers ecosystem-level
// queries: which components unlock a capability, which terms are available,
// where the reuse bottlenecks are.
type Registry struct {
	assessments map[string]*Assessment
}

// NewRegistry returns an empty assessment registry.
func NewRegistry() *Registry {
	return &Registry{assessments: map[string]*Assessment{}}
}

// Put validates and stores (or replaces) an assessment.
func (r *Registry) Put(as *Assessment) error {
	if err := as.Validate(); err != nil {
		return err
	}
	r.assessments[as.Component] = as
	return nil
}

// Get returns the assessment for a component, or nil if absent.
func (r *Registry) Get(component string) *Assessment {
	return r.assessments[component]
}

// Components returns all component names in sorted order.
func (r *Registry) Components() []string {
	out := make([]string, 0, len(r.assessments))
	for name := range r.assessments {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// MarshalJSON encodes the registry as a sorted array of assessments.
func (r *Registry) MarshalJSON() ([]byte, error) {
	arr := make([]*Assessment, 0, len(r.assessments))
	for _, name := range r.Components() {
		arr = append(arr, r.assessments[name])
	}
	return json.Marshal(arr)
}

// UnmarshalJSON decodes an array of assessments into the registry.
func (r *Registry) UnmarshalJSON(data []byte) error {
	var arr []*Assessment
	if err := json.Unmarshal(data, &arr); err != nil {
		return err
	}
	r.assessments = map[string]*Assessment{}
	for _, as := range arr {
		if as.Evidence == nil {
			as.Evidence = map[Axis][]string{}
		}
		if err := r.Put(as); err != nil {
			return err
		}
	}
	return nil
}
