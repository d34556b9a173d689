package gauge

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Vector records a component's position on all six gauges. It is the
// metadata object that travels with a workflow component: the "progressive
// characterization" of Section III. The zero Vector is all-unknown.
type Vector map[Axis]Tier

// NewVector returns an all-zero (all-unknown) vector with every axis present.
func NewVector() Vector {
	v := make(Vector, 6)
	for _, a := range Axes() {
		v[a] = 0
	}
	return v
}

// Clone returns an independent copy of the vector.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	for a, t := range v {
		out[a] = t
	}
	return out
}

// Get returns the tier on the given axis (0 if unset).
func (v Vector) Get(a Axis) Tier { return v[a] }

// Set records a tier on an axis, validating that the axis exists and the
// tier is registered.
func (v Vector) Set(a Axis, t Tier) error {
	if !a.Valid() {
		return fmt.Errorf("gauge: invalid axis %q", a)
	}
	if _, err := Info(a, t); err != nil {
		return err
	}
	v[a] = t
	return nil
}

// MustSet is Set for statically known (axis, tier) pairs; it panics on error.
func (v Vector) MustSet(a Axis, t Tier) Vector {
	if err := v.Set(a, t); err != nil {
		panic(err)
	}
	return v
}

// Validate checks every recorded tier exists and that each tier's cross-axis
// requirements (e.g. query-model needs schema ≥ format-family) are satisfied
// by the rest of the vector. A vector that violates a dependency is not
// wrong data so much as not yet meaningful — the paper's point that higher
// tiers of one gauge depend on other gauges.
func (v Vector) Validate() error {
	for a, t := range v {
		ti, err := Info(a, t)
		if err != nil {
			return err
		}
		// A tier's requirements apply to every tier at or below it that
		// declares them; it suffices to check each achieved tier's own
		// declared requirements, plus those of lower tiers on the same axis.
		for _, lower := range tierTable[a] {
			if lower.Tier > t {
				break
			}
			for dep, min := range lower.Requires {
				if v[dep] < min {
					return fmt.Errorf("gauge: %s tier %q requires %s ≥ %d, have %d",
						a, ti.Name, dep, min, v[dep])
				}
			}
		}
	}
	return nil
}

// Meets reports whether the vector satisfies a requirement vector: at least
// the required tier on every axis the requirement mentions.
func (v Vector) Meets(req Vector) bool {
	for a, t := range req {
		if v[a] < t {
			return false
		}
	}
	return true
}

// Gaps returns, for each axis where v falls short of req, the shortfall
// (req tier minus current tier). An empty map means the requirement is met.
func (v Vector) Gaps(req Vector) map[Axis]Tier {
	gaps := map[Axis]Tier{}
	for a, t := range req {
		if v[a] < t {
			gaps[a] = t - v[a]
		}
	}
	return gaps
}

// Raise sets axis a to tier t if t is higher than the current value.
func (v Vector) Raise(a Axis, t Tier) error {
	if v[a] >= t {
		return nil
	}
	return v.Set(a, t)
}

// String renders the vector compactly, e.g.
// "access=2/3 schema=3/3 semantics=1/4 granularity=2/3 custom=1/3 prov=1/3".
func (v Vector) String() string {
	short := map[Axis]string{
		DataAccess: "access", DataSchema: "schema", DataSemantics: "semantics",
		Granularity: "granularity", Customizability: "custom", Provenance: "prov",
	}
	parts := make([]string, 0, 6)
	for _, a := range Axes() {
		parts = append(parts, fmt.Sprintf("%s=%d/%d", short[a], v[a], MaxTier(a)))
	}
	return strings.Join(parts, " ")
}

// vectorJSON is the stable wire form: tier names rather than bare integers,
// so that documents stay meaningful as axes are extended.
type vectorJSON map[Axis]string

// MarshalJSON encodes the vector using stable tier names.
func (v Vector) MarshalJSON() ([]byte, error) {
	m := vectorJSON{}
	for a, t := range v {
		ti, err := Info(a, t)
		if err != nil {
			return nil, err
		}
		m[a] = ti.Name
	}
	return json.Marshal(m)
}

// UnmarshalJSON decodes tier names back into tiers.
func (v *Vector) UnmarshalJSON(data []byte) error {
	var m vectorJSON
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	out := NewVector()
	for a, name := range m {
		t, err := TierByName(a, name)
		if err != nil {
			return err
		}
		out[a] = t
	}
	*v = out
	return nil
}
