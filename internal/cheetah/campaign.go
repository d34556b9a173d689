// Package cheetah reimplements the composition half of the paper's
// Cheetah/Savanna suite (Section IV): a Python-flavoured "Campaign"
// abstraction re-expressed in Go, where end users declare parameters across
// the application, middleware and system layers as Sweeps grouped into
// SweepGroups, and the engine materialises the campaign's directory schema
// and interoperability manifest without the user ever touching low-level
// details.
package cheetah

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Layer tags where a parameter lives in the software stack; the composition
// API "allows focusing on expressing parameters across the software stack".
type Layer string

// Parameter layers.
const (
	Application Layer = "application"
	Middleware  Layer = "middleware"
	System      Layer = "system"
)

// Parameter is one swept variable with its candidate values.
type Parameter struct {
	Name   string   `json:"name"`
	Layer  Layer    `json:"layer"`
	Values []string `json:"values"`
}

// IntRange builds a parameter from an inclusive integer range with a step.
func IntRange(name string, layer Layer, from, to, step int) (Parameter, error) {
	if step <= 0 {
		return Parameter{}, fmt.Errorf("cheetah: range step must be positive")
	}
	if to < from {
		return Parameter{}, fmt.Errorf("cheetah: empty range %d..%d", from, to)
	}
	p := Parameter{Name: name, Layer: layer}
	for v := from; v <= to; v += step {
		p.Values = append(p.Values, strconv.Itoa(v))
	}
	return p, nil
}

// Validate checks the parameter.
func (p Parameter) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("cheetah: parameter needs a name")
	}
	switch p.Layer {
	case Application, Middleware, System, "":
	default:
		return fmt.Errorf("cheetah: parameter %q has unknown layer %q", p.Name, p.Layer)
	}
	if len(p.Values) == 0 {
		return fmt.Errorf("cheetah: parameter %q has no values", p.Name)
	}
	seen := map[string]bool{}
	for _, v := range p.Values {
		if seen[v] {
			return fmt.Errorf("cheetah: parameter %q duplicates value %q", p.Name, v)
		}
		seen[v] = true
	}
	return nil
}

// checkName refuses a campaign, group or sweep name that is not exactly one
// path element: Materialize joins these names into directories under its
// root, and specs come from outside the program.
func checkName(kind, name string) error {
	if name == "" {
		return fmt.Errorf("cheetah: %s needs a name", kind)
	}
	if name == "." || name == ".." || strings.ContainsAny(name, "/\\\x00") {
		return fmt.Errorf("cheetah: %s name %q is not a single path element", kind, name)
	}
	return nil
}

// SweepMode selects how a sweep combines its parameters.
type SweepMode string

// Sweep modes.
const (
	// Cross (the default) takes the full cross-product of all values.
	Cross SweepMode = "cross"
	// Zip pairs values index-wise: all parameters must have equal length,
	// and point i takes each parameter's i-th value. Used for co-varying
	// parameters (e.g. a resolution and its matching timestep).
	Zip SweepMode = "zip"
)

// Sweep combines its parameters into points, by cross-product or zipping.
type Sweep struct {
	Name string `json:"name"`
	// Mode defaults to Cross when empty.
	Mode       SweepMode   `json:"mode,omitempty"`
	Parameters []Parameter `json:"parameters"`
}

// mode returns the effective mode.
func (s Sweep) mode() SweepMode {
	if s.Mode == "" {
		return Cross
	}
	return s.Mode
}

// Validate checks the sweep.
func (s Sweep) Validate() error {
	if err := checkName("sweep", s.Name); err != nil {
		return err
	}
	if len(s.Parameters) == 0 {
		return fmt.Errorf("cheetah: sweep %q has no parameters", s.Name)
	}
	switch s.mode() {
	case Cross:
	case Zip:
		want := len(s.Parameters[0].Values)
		for _, p := range s.Parameters[1:] {
			if len(p.Values) != want {
				return fmt.Errorf("cheetah: zip sweep %q: parameter %q has %d values, want %d",
					s.Name, p.Name, len(p.Values), want)
			}
		}
	default:
		return fmt.Errorf("cheetah: sweep %q has unknown mode %q", s.Name, s.Mode)
	}
	seen := map[string]bool{}
	for _, p := range s.Parameters {
		if err := p.Validate(); err != nil {
			return err
		}
		if seen[p.Name] {
			return fmt.Errorf("cheetah: sweep %q duplicates parameter %q", s.Name, p.Name)
		}
		seen[p.Name] = true
	}
	return nil
}

// Size is the number of points the sweep yields.
func (s Sweep) Size() int {
	if s.mode() == Zip {
		return len(s.Parameters[0].Values)
	}
	n := 1
	for _, p := range s.Parameters {
		n *= len(p.Values)
	}
	return n
}

// Points enumerates the sweep in deterministic order (cross mode: first
// parameter slowest; zip mode: value index order).
func (s Sweep) Points() []map[string]string {
	zip := s.mode() == Zip
	out := make([]map[string]string, s.Size())
	for i := range out {
		point := make(map[string]string, len(s.Parameters))
		if zip {
			for _, p := range s.Parameters {
				point[p.Name] = p.Values[i]
			}
		} else {
			// i in mixed radix, the last parameter's digit least significant.
			rest := i
			for j := len(s.Parameters) - 1; j >= 0; j-- {
				p := s.Parameters[j]
				point[p.Name] = p.Values[rest%len(p.Values)]
				rest /= len(p.Values)
			}
		}
		out[i] = point
	}
	return out
}

// SweepGroup bundles sweeps that share resource settings and are submitted
// together. The paper: "one or more parameter 'Sweeps', which may be
// grouped into 'SweepGroups'"; a partially completed SweepGroup is the unit
// of resubmission.
type SweepGroup struct {
	Name string `json:"name"`
	// Nodes and WalltimeMinutes are the group's allocation request.
	Nodes           int     `json:"nodes"`
	WalltimeMinutes int     `json:"walltime_minutes"`
	Sweeps          []Sweep `json:"sweeps"`
}

// Validate checks the group.
func (g SweepGroup) Validate() error {
	if err := checkName("sweep group", g.Name); err != nil {
		return err
	}
	if g.Nodes < 1 {
		return fmt.Errorf("cheetah: group %q needs ≥1 node", g.Name)
	}
	if g.WalltimeMinutes < 1 {
		return fmt.Errorf("cheetah: group %q needs a walltime", g.Name)
	}
	if len(g.Sweeps) == 0 {
		return fmt.Errorf("cheetah: group %q has no sweeps", g.Name)
	}
	seen := map[string]bool{}
	for _, s := range g.Sweeps {
		if err := s.Validate(); err != nil {
			return err
		}
		if seen[s.Name] {
			return fmt.Errorf("cheetah: group %q duplicates sweep %q", g.Name, s.Name)
		}
		seen[s.Name] = true
	}
	return nil
}

// Size is the total run count across the group's sweeps.
func (g SweepGroup) Size() int {
	n := 0
	for _, s := range g.Sweeps {
		n += s.Size()
	}
	return n
}

// Campaign is the top-level codesign study description.
type Campaign struct {
	Name string `json:"name"`
	// App is the application component the runs execute (a command for
	// process executors, a registered function name for in-process ones).
	App string `json:"app"`
	// Account is the allocation account (metadata only).
	Account string       `json:"account"`
	Groups  []SweepGroup `json:"groups"`
}

// Validate checks the whole campaign.
func (c Campaign) Validate() error {
	if err := checkName("campaign", c.Name); err != nil {
		return err
	}
	if c.App == "" {
		return fmt.Errorf("cheetah: campaign %q needs an app", c.Name)
	}
	if len(c.Groups) == 0 {
		return fmt.Errorf("cheetah: campaign %q has no sweep groups", c.Name)
	}
	seen := map[string]bool{}
	for _, g := range c.Groups {
		if err := g.Validate(); err != nil {
			return err
		}
		if seen[g.Name] {
			return fmt.Errorf("cheetah: campaign %q duplicates group %q", c.Name, g.Name)
		}
		seen[g.Name] = true
	}
	return nil
}

// Size is the total run count of the campaign.
func (c Campaign) Size() int {
	n := 0
	for _, g := range c.Groups {
		n += g.Size()
	}
	return n
}

// Run is one enumerated execution: a group, a sweep, an index, and the
// parameter point.
type Run struct {
	ID     string            `json:"id"` // e.g. "group/sweep/run-0007"
	Group  string            `json:"group"`
	Sweep  string            `json:"sweep"`
	Index  int               `json:"index"`
	Params map[string]string `json:"params"`
}

// EnumerateRuns lists every run of the campaign in deterministic order.
func (c Campaign) EnumerateRuns() ([]Run, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	out := make([]Run, 0, c.Size())
	for _, g := range c.Groups {
		idx := 0
		for _, s := range g.Sweeps {
			prefix := g.Name + "/" + s.Name + "/run-"
			for _, point := range s.Points() {
				out = append(out, Run{
					ID:     runID(prefix, idx),
					Group:  g.Name,
					Sweep:  s.Name,
					Index:  idx,
					Params: point,
				})
				idx++
			}
		}
	}
	return out, nil
}

// runID is prefix followed by idx zero-padded to five digits, as
// fmt.Sprintf("%s%05d", prefix, idx) gives it for idx ≥ 0, in one
// allocation.
func runID(prefix string, idx int) string {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(idx), 10)
	var b strings.Builder
	b.Grow(len(prefix) + max(len(d), 5))
	b.WriteString(prefix)
	for i := len(d); i < 5; i++ {
		b.WriteByte('0')
	}
	b.Write(d)
	return b.String()
}

// ParamNames returns the sorted union of parameter names across the
// campaign — the header of any tabular result view.
func (c Campaign) ParamNames() []string {
	set := map[string]bool{}
	for _, g := range c.Groups {
		for _, s := range g.Sweeps {
			for _, p := range s.Parameters {
				set[p.Name] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
