package gauge

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

func TestAxesCountAndClassification(t *testing.T) {
	axes := Axes()
	if len(axes) != 6 {
		t.Fatalf("expected 6 gauge axes, got %d", len(axes))
	}
	var data, sw int
	for _, a := range axes {
		if !a.Valid() {
			t.Fatalf("axis %q invalid", a)
		}
		if a.IsData() {
			data++
		}
		if a.IsSoftware() {
			sw++
		}
		if a.IsData() && a.IsSoftware() {
			t.Fatalf("axis %q both data and software", a)
		}
	}
	if data != 3 || sw != 3 {
		t.Fatalf("expected 3 data + 3 software gauges, got %d + %d", data, sw)
	}
}

func TestLevelsAreContiguousFromZero(t *testing.T) {
	for _, a := range Axes() {
		levels := Levels(a)
		if len(levels) < 2 {
			t.Fatalf("axis %q has too few tiers", a)
		}
		for i, ti := range levels {
			if ti.Tier != Tier(i) {
				t.Fatalf("axis %q tier %d has rank %d", a, i, ti.Tier)
			}
			if ti.Name == "" || ti.Description == "" {
				t.Fatalf("axis %q tier %d missing name/description", a, i)
			}
		}
	}
}

func TestInfoAndTierByNameRoundTrip(t *testing.T) {
	for _, a := range Axes() {
		for _, ti := range Levels(a) {
			got, err := Info(a, ti.Tier)
			if err != nil || got.Name != ti.Name {
				t.Fatalf("Info(%q,%d) = %+v, %v", a, ti.Tier, got, err)
			}
			tier, err := TierByName(a, ti.Name)
			if err != nil || tier != ti.Tier {
				t.Fatalf("TierByName(%q,%q) = %d, %v", a, ti.Name, tier, err)
			}
		}
	}
	if _, err := Info(DataAccess, 99); err == nil {
		t.Fatal("expected error for unknown tier")
	}
	if _, err := TierByName(DataAccess, "nope"); err == nil {
		t.Fatal("expected error for unknown tier name")
	}
}

func TestTierRequirementsReferenceValidTiers(t *testing.T) {
	for _, a := range Axes() {
		for _, ti := range Levels(a) {
			for dep, min := range ti.Requires {
				if !dep.Valid() {
					t.Fatalf("%s/%s requires invalid axis %q", a, ti.Name, dep)
				}
				if dep == a {
					t.Fatalf("%s/%s requires its own axis", a, ti.Name)
				}
				if _, err := Info(dep, min); err != nil {
					t.Fatalf("%s/%s requires nonexistent %s tier %d", a, ti.Name, dep, min)
				}
			}
		}
	}
}

func TestTermIndexCoversAllTerms(t *testing.T) {
	idx := TermIndex()
	if len(idx) == 0 {
		t.Fatal("empty term index")
	}
	for _, a := range Axes() {
		for _, ti := range Levels(a) {
			for _, term := range ti.Terms {
				found := false
				for _, hit := range idx[term] {
					if hit.Axis == a && hit.Tier == ti.Tier {
						found = true
					}
				}
				if !found {
					t.Fatalf("term %q from %s/%d missing in index", term, a, ti.Tier)
				}
			}
		}
	}
}

func TestVectorSetValidation(t *testing.T) {
	v := NewVector()
	if err := v.Set(DataAccess, 2); err != nil {
		t.Fatal(err)
	}
	if v.Get(DataAccess) != 2 {
		t.Fatal("set did not stick")
	}
	if err := v.Set(DataAccess, 99); err == nil {
		t.Fatal("accepted out-of-range tier")
	}
	if err := v.Set("bogus", 1); err == nil {
		t.Fatal("accepted invalid axis")
	}
}

func TestVectorValidateCrossAxisDependency(t *testing.T) {
	v := NewVector()
	// query-model (access tier 3) requires schema ≥ 1.
	v.MustSet(DataAccess, 3)
	if err := v.Validate(); err == nil {
		t.Fatal("expected dependency violation for access=3 schema=0")
	}
	v.MustSet(DataSchema, 1)
	if err := v.Validate(); err != nil {
		t.Fatalf("valid vector rejected: %v", err)
	}
}

func TestVectorMeetsAndGaps(t *testing.T) {
	v := NewVector().MustSet(DataSchema, 2)
	req := Vector{DataSchema: 3, Granularity: 1}
	if v.Meets(req) {
		t.Fatal("unmet requirement reported met")
	}
	gaps := v.Gaps(req)
	if gaps[DataSchema] != 1 || gaps[Granularity] != 1 || len(gaps) != 2 {
		t.Fatalf("bad gaps: %v", gaps)
	}
	v.MustSet(DataSchema, 3).MustSet(Granularity, 2)
	if !v.Meets(req) || len(v.Gaps(req)) != 0 {
		t.Fatal("met requirement reported unmet")
	}
}

func TestVectorRaiseNeverLowers(t *testing.T) {
	v := NewVector().MustSet(DataAccess, 2)
	if err := v.Raise(DataAccess, 1); err != nil {
		t.Fatal(err)
	}
	if v.Get(DataAccess) != 2 {
		t.Fatal("Raise lowered a tier")
	}
	if err := v.Raise(DataAccess, 3); err != nil {
		t.Fatal(err)
	}
	if v.Get(DataAccess) != 3 {
		t.Fatal("Raise did not raise")
	}
}

func TestVectorJSONRoundTrip(t *testing.T) {
	v := NewVector().MustSet(DataAccess, 2).MustSet(DataSchema, 3).MustSet(Provenance, 1)
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"interface"`) {
		t.Fatalf("JSON should use tier names: %s", data)
	}
	var back Vector
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for _, a := range Axes() {
		if back[a] != v[a] {
			t.Fatalf("round trip changed %s: %d != %d", a, back[a], v[a])
		}
	}
}

func TestVectorCloneIndependence(t *testing.T) {
	v := NewVector().MustSet(DataAccess, 1)
	c := v.Clone()
	c.MustSet(DataAccess, 2)
	if v.Get(DataAccess) != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestVectorStringMentionsAllAxes(t *testing.T) {
	s := NewVector().String()
	for _, frag := range []string{"access=", "schema=", "semantics=", "granularity=", "custom=", "prov="} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() missing %q: %s", frag, s)
		}
	}
}

func TestDominancePreservesCapabilities(t *testing.T) {
	// Property: if v meets w on every axis, every capability unlocked by w is
	// unlocked by v (raising gauges never removes automation).
	f := func(raw [6]uint8, extra [6]uint8) bool {
		w := NewVector()
		v := NewVector()
		for i, a := range Axes() {
			max := int(MaxTier(a))
			wt := int(raw[i]) % (max + 1)
			vt := wt + int(extra[i])%(max-wt+1)
			w[a] = Tier(wt)
			v[a] = Tier(vt)
		}
		if !v.Meets(w) {
			return false
		}
		for _, c := range Capabilities() {
			if Unlocked(w, c) && !Unlocked(v, c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
