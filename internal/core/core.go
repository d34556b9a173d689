// Package core is the library's top layer: the reusable-workflow abstraction
// of Section III. A workflow is a graph of components; every component
// carries a gauge assessment (its position on the six reusability axes),
// typed data ports, and optionally a Skel customization model. On top of
// that metadata the automation planner decides, edge by edge and component
// by component, which parts of a reuse event are automatable right now and
// which still need a human — making the reusability continuum explicit and
// selectable.
package core

import (
	"fmt"
	"sort"

	"fairflow/internal/gauge"
	"fairflow/internal/skel"
)

// PortDirection distinguishes inputs from outputs.
type PortDirection string

// Port directions.
const (
	In  PortDirection = "in"
	Out PortDirection = "out"
)

// Port is a typed data endpoint of a component. FormatID references a
// format in a schema registry ("name@vN"); AccessTerms and SemanticTerms
// carry gauge-ontology terms describing how the data is reached and
// consumed ("posix-file", "element-wise", "first-precious", ...).
type Port struct {
	Name          string        `json:"name"`
	Direction     PortDirection `json:"direction"`
	FormatID      string        `json:"format_id,omitempty"`
	AccessTerms   []string      `json:"access_terms,omitempty"`
	SemanticTerms []string      `json:"semantic_terms,omitempty"`
}

// GranularityKind mirrors the granularity gauge's component-scale tier.
type GranularityKind string

// Component scales.
const (
	CodeFragment    GranularityKind = "code-fragment"
	Executable      GranularityKind = "executable"
	BundledWorkflow GranularityKind = "bundled-workflow"
	InternalService GranularityKind = "internal-service"
)

// Component is one reusable workflow element.
type Component struct {
	Name string          `json:"name"`
	Kind GranularityKind `json:"kind"`
	// Assessment is the component's six-gauge position with evidence.
	Assessment *gauge.Assessment `json:"assessment"`
	// Ports declare the component's data interface.
	Ports []Port `json:"ports"`
	// Customization, when present, is the machine-actionable model that
	// regenerates the component's concrete expression (customizability
	// tier 2).
	Customization *skel.ModelSpec `json:"customization,omitempty"`
}

// Validate checks structural consistency, including that the recorded
// gauge tiers do not overstate the attached metadata (a component claiming
// full-schema ports must actually name formats on every port).
func (c *Component) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("core: component needs a name")
	}
	switch c.Kind {
	case CodeFragment, Executable, BundledWorkflow, InternalService, "":
	default:
		return fmt.Errorf("core: component %q has unknown kind %q", c.Name, c.Kind)
	}
	if c.Assessment == nil {
		return fmt.Errorf("core: component %q has no gauge assessment", c.Name)
	}
	if err := c.Assessment.Validate(); err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, p := range c.Ports {
		if p.Name == "" {
			return fmt.Errorf("core: component %q has unnamed port", c.Name)
		}
		if seen[p.Name] {
			return fmt.Errorf("core: component %q duplicates port %q", c.Name, p.Name)
		}
		seen[p.Name] = true
		if p.Direction != In && p.Direction != Out {
			return fmt.Errorf("core: port %s.%s has bad direction %q", c.Name, p.Name, p.Direction)
		}
	}
	// Claiming schema tier ≥1 requires formats on all ports.
	if c.Assessment.Vector.Get(gauge.DataSchema) >= 1 {
		for _, p := range c.Ports {
			if p.FormatID == "" {
				return fmt.Errorf("core: component %q claims schema tier ≥1 but port %q names no format", c.Name, p.Name)
			}
		}
	}
	// Claiming customizability tier ≥2 requires a generation model.
	if c.Assessment.Vector.Get(gauge.Customizability) >= 2 && c.Customization == nil {
		return fmt.Errorf("core: component %q claims a machine-actionable model but has none", c.Name)
	}
	return nil
}

// Port returns the named port.
func (c *Component) Port(name string) (Port, bool) {
	for _, p := range c.Ports {
		if p.Name == name {
			return p, true
		}
	}
	return Port{}, false
}

// Edge connects an output port to an input port.
type Edge struct {
	FromComponent string `json:"from_component"`
	FromPort      string `json:"from_port"`
	ToComponent   string `json:"to_component"`
	ToPort        string `json:"to_port"`
}

func (e Edge) String() string {
	return fmt.Sprintf("%s.%s → %s.%s", e.FromComponent, e.FromPort, e.ToComponent, e.ToPort)
}

// Workflow is a directed graph of components.
type Workflow struct {
	Name       string       `json:"name"`
	Components []*Component `json:"components"`
	Edges      []Edge       `json:"edges"`
}

// Component returns the named component.
func (w *Workflow) Component(name string) (*Component, bool) {
	for _, c := range w.Components {
		if c.Name == name {
			return c, true
		}
	}
	return nil, false
}

// Validate checks the graph: valid components, edges referencing real
// out→in port pairs, unique component names, and acyclicity.
func (w *Workflow) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("core: workflow needs a name")
	}
	if len(w.Components) == 0 {
		return fmt.Errorf("core: workflow %q has no components", w.Name)
	}
	names := map[string]bool{}
	for _, c := range w.Components {
		if err := c.Validate(); err != nil {
			return err
		}
		if names[c.Name] {
			return fmt.Errorf("core: workflow %q duplicates component %q", w.Name, c.Name)
		}
		names[c.Name] = true
	}
	for _, e := range w.Edges {
		from, ok := w.Component(e.FromComponent)
		if !ok {
			return fmt.Errorf("core: edge %s references unknown component %q", e, e.FromComponent)
		}
		to, ok := w.Component(e.ToComponent)
		if !ok {
			return fmt.Errorf("core: edge %s references unknown component %q", e, e.ToComponent)
		}
		fp, ok := from.Port(e.FromPort)
		if !ok || fp.Direction != Out {
			return fmt.Errorf("core: edge %s needs an output port on %q", e, e.FromComponent)
		}
		tp, ok := to.Port(e.ToPort)
		if !ok || tp.Direction != In {
			return fmt.Errorf("core: edge %s needs an input port on %q", e, e.ToComponent)
		}
	}
	if _, err := w.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns component names in a topological order, or an error for
// cyclic graphs.
func (w *Workflow) TopoOrder() ([]string, error) {
	indeg := map[string]int{}
	adj := map[string][]string{}
	for _, c := range w.Components {
		indeg[c.Name] = 0
	}
	for _, e := range w.Edges {
		adj[e.FromComponent] = append(adj[e.FromComponent], e.ToComponent)
		indeg[e.ToComponent]++
	}
	var ready []string
	for name, d := range indeg {
		if d == 0 {
			ready = append(ready, name)
		}
	}
	sort.Strings(ready)
	var order []string
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		next := adj[n]
		sort.Strings(next)
		for _, m := range next {
			indeg[m]--
			if indeg[m] == 0 {
				ready = append(ready, m)
			}
		}
		sort.Strings(ready)
	}
	if len(order) != len(w.Components) {
		return nil, fmt.Errorf("core: workflow %q contains a cycle", w.Name)
	}
	return order, nil
}

// Debt sums the technical-debt ledgers of all components: the human minutes
// one reuse event of the whole workflow costs at current gauge tiers.
func (w *Workflow) Debt() (interventions int, minutes float64) {
	for _, c := range w.Components {
		led := gauge.DebtLedger(c.Name, c.Assessment.Vector)
		interventions += led.InterventionCount()
		minutes += led.MinutesPerReuse()
	}
	return interventions, minutes
}
