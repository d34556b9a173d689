// Package schema implements the data-schema substrate behind the paper's
// data gauges: machine-readable format descriptors, a registry of known
// formats, an automated conversion planner, and format-version evolution
// chains (the "format evolution" tier of the data-semantics gauge).
//
// Workflow components declare the formats they produce and consume; once a
// format is described at the "full-schema" tier, the planner can synthesise
// conversion pipelines automatically instead of a human writing one-off
// wrangling scripts — the 80% of data-science time the paper's GWAS
// scenario (Section II-A) targets.
package schema

import (
	"fmt"
	"sort"
)

// Family classifies a format the way the data-schema gauge's first tier
// does: human-readable ASCII, self-describing binary, or custom binary.
type Family string

// Format families recognised by the registry.
const (
	ASCII          Family = "ascii"
	SelfDescribing Family = "self-describing-binary"
	CustomBinary   Family = "custom-binary"
)

// Kind is the logical structure a format carries (the gauge's "structure"
// tier: typed arrays, tables, graphs, meshes...).
type Kind string

// Logical structure kinds.
const (
	ByteStream Kind = "byte-stream"
	TypedArray Kind = "typed-array"
	Table      Kind = "table"
	Graph      Kind = "graph"
	Mesh       Kind = "mesh"
)

// FieldType enumerates primitive field types in a full schema.
type FieldType string

// Primitive field types.
const (
	Int64   FieldType = "int64"
	Float64 FieldType = "float64"
	String  FieldType = "string"
	Bytes   FieldType = "bytes"
	Bool    FieldType = "bool"
)

// Field is one typed, named element of a full schema.
type Field struct {
	Name string    `json:"name"`
	Type FieldType `json:"type"`
	// Shape is empty for scalars; otherwise the dimension extents, with 0
	// meaning "variable along this dimension".
	Shape []int  `json:"shape,omitempty"`
	Unit  string `json:"unit,omitempty"`
}

// Format is a machine-readable format descriptor. Name and Version identify
// it; the rest is the metadata that the gauges progressively add: the family
// (schema tier 1), the logical kind (tier 2), and the full field list
// (tier 3).
type Format struct {
	Name    string  `json:"name"`
	Version int     `json:"version"`
	Family  Family  `json:"family"`
	Kind    Kind    `json:"kind"`
	Fields  []Field `json:"fields,omitempty"`
}

// ID returns the registry key "name@vN".
func (f Format) ID() string { return FormatID(f.Name, f.Version) }

// FormatID builds the registry key for a (name, version) pair.
func FormatID(name string, version int) string {
	return fmt.Sprintf("%s@v%d", name, version)
}

// Validate checks descriptor consistency: version ≥ 1, unique non-empty
// field names, known family/kind/type enums when present.
func (f Format) Validate() error {
	if f.Name == "" {
		return fmt.Errorf("schema: format name required")
	}
	if f.Version < 1 {
		return fmt.Errorf("schema: format %q version must be ≥ 1", f.Name)
	}
	switch f.Family {
	case "", ASCII, SelfDescribing, CustomBinary:
	default:
		return fmt.Errorf("schema: format %q has unknown family %q", f.Name, f.Family)
	}
	switch f.Kind {
	case "", ByteStream, TypedArray, Table, Graph, Mesh:
	default:
		return fmt.Errorf("schema: format %q has unknown kind %q", f.Name, f.Kind)
	}
	seen := map[string]bool{}
	for _, fd := range f.Fields {
		if fd.Name == "" {
			return fmt.Errorf("schema: format %q has unnamed field", f.Name)
		}
		if seen[fd.Name] {
			return fmt.Errorf("schema: format %q duplicates field %q", f.Name, fd.Name)
		}
		seen[fd.Name] = true
		switch fd.Type {
		case Int64, Float64, String, Bytes, Bool:
		default:
			return fmt.Errorf("schema: field %q has unknown type %q", fd.Name, fd.Type)
		}
		for _, d := range fd.Shape {
			if d < 0 {
				return fmt.Errorf("schema: field %q has negative dimension", fd.Name)
			}
		}
	}
	return nil
}

// Registry stores format descriptors, converters between them, and version
// evolution edges. It answers the conversion-planning queries that back the
// CapAutoConvert capability.
type Registry struct {
	formats    map[string]Format
	converters map[string]map[string]Converter // from ID -> to ID -> converter
}

// Converter transforms a record batch from one format to another. Real
// converters in this repo are built by the tabular and stream packages; the
// registry only plans over them.
type Converter struct {
	From string `json:"from"`
	To   string `json:"to"`
	// Lossy marks conversions that drop information (e.g. dropping units or
	// narrowing types); the planner prefers lossless paths.
	Lossy bool `json:"lossy"`
	// Cost is a relative cost weight for planning (1 = cheap columnar map).
	Cost float64 `json:"cost"`
	// Apply performs the conversion on an opaque record batch. May be nil
	// for plan-only registrations (metadata imported from elsewhere).
	Apply func(any) (any, error) `json:"-"`
}

// NewRegistry returns an empty format registry.
func NewRegistry() *Registry {
	return &Registry{
		formats:    map[string]Format{},
		converters: map[string]map[string]Converter{},
	}
}

// Register validates and stores a format descriptor.
func (r *Registry) Register(f Format) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if _, dup := r.formats[f.ID()]; dup {
		return fmt.Errorf("schema: format %s already registered", f.ID())
	}
	r.formats[f.ID()] = f
	return nil
}

// Lookup returns a registered format by ID.
func (r *Registry) Lookup(id string) (Format, bool) {
	f, ok := r.formats[id]
	return f, ok
}

// AddConverter registers a direct conversion edge. Both endpoints must be
// registered formats.
func (r *Registry) AddConverter(c Converter) error {
	if _, ok := r.formats[c.From]; !ok {
		return fmt.Errorf("schema: converter source %s not registered", c.From)
	}
	if _, ok := r.formats[c.To]; !ok {
		return fmt.Errorf("schema: converter target %s not registered", c.To)
	}
	if c.Cost <= 0 {
		c.Cost = 1
	}
	if r.converters[c.From] == nil {
		r.converters[c.From] = map[string]Converter{}
	}
	r.converters[c.From][c.To] = c
	return nil
}

// Plan is a conversion pipeline: an ordered list of converter hops.
type Plan struct {
	Steps []Converter `json:"steps"`
}

// Cost is the summed cost of all hops.
func (p Plan) Cost() float64 {
	var c float64
	for _, s := range p.Steps {
		c += s.Cost
	}
	return c
}

// Lossy reports whether any hop loses information.
func (p Plan) Lossy() bool {
	for _, s := range p.Steps {
		if s.Lossy {
			return true
		}
	}
	return false
}

// Execute runs the plan's converters in order over a record batch. Every
// hop must carry an Apply function.
func (p Plan) Execute(batch any) (any, error) {
	cur := batch
	for _, s := range p.Steps {
		if s.Apply == nil {
			return nil, fmt.Errorf("schema: converter %s→%s is plan-only (no Apply)", s.From, s.To)
		}
		next, err := s.Apply(cur)
		if err != nil {
			return nil, fmt.Errorf("schema: converting %s→%s: %w", s.From, s.To, err)
		}
		cur = next
	}
	return cur, nil
}

// PlanConversion finds the cheapest conversion pipeline from one format to
// another using Dijkstra over the converter graph, preferring lossless
// plans: a lossless path is always chosen over a lossy one regardless of
// cost; among equally lossy paths the cheaper wins. It returns an error if
// no path exists.
func (r *Registry) PlanConversion(fromID, toID string) (Plan, error) {
	if _, ok := r.formats[fromID]; !ok {
		return Plan{}, fmt.Errorf("schema: unknown source format %s", fromID)
	}
	if _, ok := r.formats[toID]; !ok {
		return Plan{}, fmt.Errorf("schema: unknown target format %s", toID)
	}
	if fromID == toID {
		return Plan{}, nil
	}

	type state struct {
		cost  float64
		lossy bool
		prev  string
		via   Converter
		done  bool
		seen  bool
	}
	states := map[string]*state{fromID: {seen: true}}

	// betterThan reports whether (costA, lossyA) is strictly preferable to
	// (costB, lossyB): lossless beats lossy, then lower cost wins.
	betterThan := func(costA float64, lossyA bool, costB float64, lossyB bool) bool {
		if lossyA != lossyB {
			return !lossyA
		}
		return costA < costB
	}

	for {
		// Select the unfinished node with the best (lossless-first, then
		// cheapest) state. Linear scan: format graphs are small. Iterate in
		// sorted key order so ties break deterministically.
		ids := make([]string, 0, len(states))
		for id := range states {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var cur string
		var curSt *state
		for _, id := range ids {
			st := states[id]
			if st.done || !st.seen {
				continue
			}
			if curSt == nil || betterThan(st.cost, st.lossy, curSt.cost, curSt.lossy) {
				cur, curSt = id, st
			}
		}
		if curSt == nil {
			return Plan{}, fmt.Errorf("schema: no conversion path %s → %s", fromID, toID)
		}
		if cur == toID {
			break
		}
		curSt.done = true
		for next, conv := range r.converters[cur] {
			cost := curSt.cost + conv.Cost
			lossy := curSt.lossy || conv.Lossy
			st := states[next]
			if st == nil {
				st = &state{}
				states[next] = st
			}
			if !st.done && (!st.seen || betterThan(cost, lossy, st.cost, st.lossy)) {
				st.cost, st.lossy, st.prev, st.via, st.seen = cost, lossy, cur, conv, true
			}
		}
	}

	var steps []Converter
	for at := toID; at != fromID; {
		st := states[at]
		steps = append([]Converter{st.via}, steps...)
		at = st.prev
	}
	return Plan{Steps: steps}, nil
}
