package gauge

import (
	"fmt"
	"sort"
	"strings"
)

// Intervention is one human action a reuse event requires because metadata
// below some gauge tier is missing. Technical debt, in the paper's
// formulation, is "the degree of human effort needed to repurpose or reuse a
// piece of data or code" — anything not explicitly implemented in the item
// itself.
type Intervention struct {
	Axis        Axis   `json:"axis"`
	BelowTier   Tier   `json:"below_tier"` // the unmet tier that would remove this intervention
	Description string `json:"description"`
	// MinutesEach is the modelled human cost of servicing this intervention
	// once. The absolute numbers are illustrative; the experiments only rely
	// on counts and relative ordering.
	MinutesEach float64 `json:"minutes_each"`
	// PerReuse is how many times the intervention recurs in a single reuse
	// event (e.g. once per generated submit script).
	PerReuse int `json:"per_reuse"`
}

// interventionCatalog models the human actions that remain necessary while
// an axis sits below a given tier. Each entry is removed from the debt
// ledger as soon as the component reaches the tier — automation then covers
// it ("no debt accrues from code that can be efficiently deleted and
// regenerated when needed", Section III).
var interventionCatalog = []Intervention{
	{DataAccess, 1, "ask the author how/where the data is reached", 30, 1},
	{DataAccess, 2, "read code to discover the I/O library and call pattern", 45, 1},
	{DataAccess, 3, "hand-write access shims for each new consumer", 60, 1},
	{DataSchema, 1, "reverse-engineer the byte layout of inputs/outputs", 90, 1},
	{DataSchema, 2, "hand-map fields between producer and consumer structures", 45, 1},
	{DataSchema, 3, "write and test a custom format converter", 120, 1},
	{DataSemantics, 1, "determine ordering/windowing requirements experimentally", 60, 1},
	{DataSemantics, 2, "hand-code merge/join glue between streams", 60, 1},
	{DataSemantics, 3, "reconstruct version differences between format revisions", 45, 1},
	{DataSemantics, 4, "re-derive dataset-level labels/roles from the author", 30, 1},
	{Granularity, 1, "treat the component as a black box; rerun whole bundle for any change", 20, 1},
	{Granularity, 2, "hand-edit build/launch scripts for the new machine", 30, 3},
	{Granularity, 3, "manually verify I/O contract assumptions (e.g. first-precious)", 40, 1},
	{Customizability, 1, "grep the source for tunable constants before each run", 25, 2},
	{Customizability, 2, "manually perturb scripts for every run configuration", 10, 8},
	{Customizability, 3, "manually co-ordinate related variables across a sweep", 15, 4},
	{Provenance, 1, "run down the hall to ask which run produced which file", 20, 2},
	{Provenance, 2, "manually curate failed runs and build resubmission lists", 25, 2},
	{Provenance, 3, "hand-sanitise logs before sharing the workflow", 35, 1},
}

// DebtItem is one outstanding intervention in a component's ledger.
type DebtItem struct {
	Intervention
	Component string `json:"component"`
}

// Ledger is the technical-debt ledger computed from a gauge vector: the
// human interventions a single reuse event still requires.
type Ledger struct {
	Component string     `json:"component"`
	Items     []DebtItem `json:"items"`
}

// DebtLedger computes the outstanding interventions for a component at the
// given vector. An intervention is outstanding while the axis tier is below
// the intervention's tier.
func DebtLedger(component string, v Vector) Ledger {
	led := Ledger{Component: component}
	for _, iv := range interventionCatalog {
		if v[iv.Axis] < iv.BelowTier {
			led.Items = append(led.Items, DebtItem{Intervention: iv, Component: component})
		}
	}
	return led
}

// InterventionCount is the number of distinct human interventions per reuse,
// weighted by recurrence.
func (l Ledger) InterventionCount() int {
	n := 0
	for _, it := range l.Items {
		n += it.PerReuse
	}
	return n
}

// MinutesPerReuse is the modelled total human minutes a single reuse event
// costs at the current tiers.
func (l Ledger) MinutesPerReuse() float64 {
	var m float64
	for _, it := range l.Items {
		m += it.MinutesEach * float64(it.PerReuse)
	}
	return m
}

// String renders the ledger as a short human-readable report.
func (l Ledger) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "technical debt for %s: %d interventions, %.0f min/reuse\n",
		l.Component, l.InterventionCount(), l.MinutesPerReuse())
	items := append([]DebtItem(nil), l.Items...)
	sort.Slice(items, func(i, j int) bool {
		if items[i].Axis != items[j].Axis {
			return items[i].Axis < items[j].Axis
		}
		return items[i].BelowTier < items[j].BelowTier
	})
	for _, it := range items {
		fmt.Fprintf(&b, "  [%s<%d] ×%d %s (%.0f min each)\n",
			it.Axis, it.BelowTier, it.PerReuse, it.Description, it.MinutesEach)
	}
	return b.String()
}

// PayoffStep describes the debt reduction from raising one axis by one tier:
// the "continuum of reusability" made explicit and selectable.
type PayoffStep struct {
	Axis          Axis    `json:"axis"`
	ToTier        Tier    `json:"to_tier"`
	MinutesSaved  float64 `json:"minutes_saved"`
	Interventions int     `json:"interventions_removed"`
}

// PayoffCurve enumerates, from the current vector, the marginal value of
// every available single-tier raise, sorted by minutes saved (descending).
// This is the decision aid a team uses to choose which metadata to invest
// in next.
func PayoffCurve(v Vector) []PayoffStep {
	var steps []PayoffStep
	for _, a := range Axes() {
		next := v[a] + 1
		if next > MaxTier(a) {
			continue
		}
		step := PayoffStep{Axis: a, ToTier: next}
		for _, iv := range interventionCatalog {
			if iv.Axis == a && iv.BelowTier == next {
				step.MinutesSaved += iv.MinutesEach * float64(iv.PerReuse)
				step.Interventions += iv.PerReuse
			}
		}
		steps = append(steps, step)
	}
	sort.Slice(steps, func(i, j int) bool {
		if steps[i].MinutesSaved != steps[j].MinutesSaved {
			return steps[i].MinutesSaved > steps[j].MinutesSaved
		}
		return steps[i].Axis < steps[j].Axis
	})
	return steps
}
