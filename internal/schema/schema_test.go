package schema

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func tableFormat(name string, version int) Format {
	return Format{
		Name: name, Version: version, Family: ASCII, Kind: Table,
		Fields: []Field{
			{Name: "id", Type: Int64},
			{Name: "value", Type: Float64, Unit: "m"},
		},
	}
}

func TestFormatValidate(t *testing.T) {
	cases := []struct {
		name string
		f    Format
		ok   bool
	}{
		{"valid", tableFormat("t", 1), true},
		{"no name", Format{Version: 1}, false},
		{"zero version", Format{Name: "x"}, false},
		{"bad family", Format{Name: "x", Version: 1, Family: "weird"}, false},
		{"bad kind", Format{Name: "x", Version: 1, Kind: "weird"}, false},
		{"dup field", Format{Name: "x", Version: 1, Fields: []Field{
			{Name: "a", Type: Int64}, {Name: "a", Type: Int64}}}, false},
		{"unnamed field", Format{Name: "x", Version: 1, Fields: []Field{{Type: Int64}}}, false},
		{"bad type", Format{Name: "x", Version: 1, Fields: []Field{{Name: "a", Type: "i128"}}}, false},
		{"neg dim", Format{Name: "x", Version: 1, Fields: []Field{
			{Name: "a", Type: Float64, Shape: []int{-1}}}}, false},
		{"variable dim ok", Format{Name: "x", Version: 1, Fields: []Field{
			{Name: "a", Type: Float64, Shape: []int{0, 3}}}}, true},
	}
	for _, c := range cases {
		if err := c.f.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestRegistryRegisterAndLookup(t *testing.T) {
	r := NewRegistry()
	f := tableFormat("bed", 1)
	if err := r.Register(f); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(f); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	got, ok := r.Lookup("bed@v1")
	if !ok || got.Name != "bed" {
		t.Fatalf("lookup = %+v, %v", got, ok)
	}
	if ids := formatIDs(r); len(ids) != 1 || ids[0] != "bed@v1" {
		t.Fatalf("Formats = %v", ids)
	}
}

// buildChainRegistry registers formats a,b,c,d with converters
// a→b (1), b→c (1), a→c (5, lossy), c→d (1).
func buildChainRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	for _, n := range []string{"a", "b", "c", "d"} {
		if err := r.Register(Format{Name: n, Version: 1, Family: ASCII, Kind: Table}); err != nil {
			t.Fatal(err)
		}
	}
	id := func(n string) string { return FormatID(n, 1) }
	pass := func(x any) (any, error) { return x, nil }
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(r.AddConverter(Converter{From: id("a"), To: id("b"), Cost: 1, Apply: pass}))
	must(r.AddConverter(Converter{From: id("b"), To: id("c"), Cost: 1, Apply: pass}))
	must(r.AddConverter(Converter{From: id("a"), To: id("c"), Cost: 5, Lossy: true, Apply: pass}))
	must(r.AddConverter(Converter{From: id("c"), To: id("d"), Cost: 1, Apply: pass}))
	return r
}

func TestPlanConversionPrefersLossless(t *testing.T) {
	r := buildChainRegistry(t)
	p, err := r.PlanConversion("a@v1", "c@v1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Lossy() {
		t.Fatalf("planner chose lossy path: %+v", p)
	}
	if len(p.Steps) != 2 || p.Cost() != 2 {
		t.Fatalf("unexpected plan: steps=%d cost=%v", len(p.Steps), p.Cost())
	}
}

func TestPlanConversionMultiHop(t *testing.T) {
	r := buildChainRegistry(t)
	p, err := r.PlanConversion("a@v1", "d@v1")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 3 {
		t.Fatalf("expected a→b→c→d, got %d steps", len(p.Steps))
	}
	if p.Steps[0].From != "a@v1" || p.Steps[2].To != "d@v1" {
		t.Fatalf("plan endpoints wrong: %+v", p.Steps)
	}
}

func TestPlanConversionIdentityAndMissing(t *testing.T) {
	r := buildChainRegistry(t)
	p, err := r.PlanConversion("a@v1", "a@v1")
	if err != nil || len(p.Steps) != 0 {
		t.Fatalf("identity plan: %+v, %v", p, err)
	}
	if _, err := r.PlanConversion("d@v1", "a@v1"); err == nil {
		t.Fatal("found path where none exists")
	}
	if _, err := r.PlanConversion("nope@v1", "a@v1"); err == nil {
		t.Fatal("accepted unknown source")
	}
	if _, err := r.PlanConversion("a@v1", "nope@v1"); err == nil {
		t.Fatal("accepted unknown target")
	}
}

func TestPlanExecuteRunsHops(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"x", "y", "z"} {
		if err := r.Register(Format{Name: n, Version: 1, Family: ASCII, Kind: Table}); err != nil {
			t.Fatal(err)
		}
	}
	inc := func(v any) (any, error) { return v.(int) + 1, nil }
	if err := r.AddConverter(Converter{From: "x@v1", To: "y@v1", Apply: inc}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddConverter(Converter{From: "y@v1", To: "z@v1", Apply: inc}); err != nil {
		t.Fatal(err)
	}
	p, err := r.PlanConversion("x@v1", "z@v1")
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Execute(5)
	if err != nil || out.(int) != 7 {
		t.Fatalf("Execute = %v, %v", out, err)
	}
}

func TestPlanExecutePlanOnlyConverterFails(t *testing.T) {
	p := Plan{Steps: []Converter{{From: "a", To: "b"}}}
	if _, err := p.Execute(1); err == nil || !strings.Contains(err.Error(), "plan-only") {
		t.Fatalf("expected plan-only error, got %v", err)
	}
}

func TestPlanExecutePropagatesHopError(t *testing.T) {
	boom := func(any) (any, error) { return nil, fmt.Errorf("boom") }
	p := Plan{Steps: []Converter{{From: "a", To: "b", Apply: boom}}}
	if _, err := p.Execute(1); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected wrapped hop error, got %v", err)
	}
}

func TestAddConverterRequiresEndpoints(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(tableFormat("only", 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.AddConverter(Converter{From: "only@v1", To: "ghost@v1"}); err == nil {
		t.Fatal("converter to unregistered format accepted")
	}
	if err := r.AddConverter(Converter{From: "ghost@v1", To: "only@v1"}); err == nil {
		t.Fatal("converter from unregistered format accepted")
	}
}

func TestPlanConversionCostNeverNegativeAndDeterministic(t *testing.T) {
	r := buildChainRegistry(t)
	f := func(pick uint8) bool {
		ids := formatIDs(r)
		from := ids[int(pick)%len(ids)]
		for _, to := range ids {
			p1, err1 := r.PlanConversion(from, to)
			p2, err2 := r.PlanConversion(from, to)
			if (err1 == nil) != (err2 == nil) {
				return false
			}
			if err1 == nil {
				if p1.Cost() < 0 || p1.Cost() != p2.Cost() || len(p1.Steps) != len(p2.Steps) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// formatIDs lists all registered format IDs in sorted order.
func formatIDs(r *Registry) []string {
	out := make([]string, 0, len(r.formats))
	for id := range r.formats {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
