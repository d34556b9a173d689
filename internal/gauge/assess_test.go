package gauge

import (
	"encoding/json"
	"testing"
	"testing/quick"
)

func TestAssessmentAttestRaisesAndRecordsEvidence(t *testing.T) {
	as := NewAssessment("gwas-paste")
	if err := as.Attest(DataSchema, 2, "schemas/genotype.json"); err != nil {
		t.Fatal(err)
	}
	if as.Vector.Get(DataSchema) != 2 {
		t.Fatal("attest did not raise tier")
	}
	if len(as.Evidence[DataSchema]) != 1 {
		t.Fatal("evidence not recorded")
	}
	// Attesting a lower tier keeps the higher one but may add evidence.
	if err := as.Attest(DataSchema, 1, "extra"); err != nil {
		t.Fatal(err)
	}
	if as.Vector.Get(DataSchema) != 2 {
		t.Fatal("attest lowered tier")
	}
}

func TestAssessmentValidate(t *testing.T) {
	as := NewAssessment("")
	if err := as.Validate(); err == nil {
		t.Fatal("accepted empty component name")
	}
	as = NewAssessment("c")
	as.Vector[DataAccess] = 3 // query-model without schema
	if err := as.Validate(); err == nil {
		t.Fatal("accepted dependency-violating vector")
	}
}

func TestCapabilityRequirementsAreValidVectors(t *testing.T) {
	for _, c := range Capabilities() {
		req, ok := capabilityRequirements[c]
		if !ok {
			t.Fatalf("capability %q missing requirement", c)
		}
		for a, tier := range req {
			if !a.Valid() {
				t.Fatalf("capability %q requires invalid axis %q", c, a)
			}
			if _, err := Info(a, tier); err != nil {
				t.Fatalf("capability %q requires nonexistent %s tier %d", c, a, tier)
			}
		}
	}
}

func TestUnlockedExamples(t *testing.T) {
	v := NewVector()
	if Unlocked(v, CapAutoConvert) {
		t.Fatal("all-unknown vector unlocked auto-convert")
	}
	v.MustSet(DataAccess, 2).MustSet(DataSchema, 3)
	if !Unlocked(v, CapAutoConvert) {
		t.Fatal("auto-convert should unlock at access=2 schema=3")
	}
	if Unlocked(v, "nonexistent-capability") {
		t.Fatal("unknown capability unlocked")
	}
}

func TestMissingForReportsShortfall(t *testing.T) {
	v := NewVector().MustSet(DataAccess, 1)
	gaps, ok := MissingFor(v, CapAutoConvert)
	if !ok {
		t.Fatal("known capability reported unknown")
	}
	if gaps[DataAccess] != 1 || gaps[DataSchema] != 3 {
		t.Fatalf("bad gaps: %v", gaps)
	}
	if _, ok := MissingFor(v, "nope"); ok {
		t.Fatal("unknown capability reported known")
	}
}

func TestFullVectorUnlocksEverything(t *testing.T) {
	v := NewVector()
	for _, a := range Axes() {
		v.MustSet(a, MaxTier(a))
	}
	if err := v.Validate(); err != nil {
		t.Fatalf("max vector invalid: %v", err)
	}
	caps := UnlockedCapabilities(v)
	if len(caps) != len(Capabilities()) {
		t.Fatalf("max vector unlocked %d/%d capabilities", len(caps), len(Capabilities()))
	}
}

func TestRegistryQueries(t *testing.T) {
	r := NewRegistry()
	a := NewAssessment("converter")
	a.Vector.MustSet(DataAccess, 2).MustSet(DataSchema, 3)
	b := NewAssessment("blackbox")
	if err := r.Put(a); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(b); err != nil {
		t.Fatal(err)
	}
	if r.Get("nope") != nil {
		t.Fatal("missing component returned non-nil")
	}
	names := r.Components()
	if len(names) != 2 || names[0] != "blackbox" {
		t.Fatalf("Components() = %v", names)
	}
}

func TestRegistryJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	a := NewAssessment("c1")
	a.Attest(Provenance, 2, "prov/log.json")
	if err := r.Put(a); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistry()
	if err := json.Unmarshal(data, r2); err != nil {
		t.Fatal(err)
	}
	got := r2.Get("c1")
	if got == nil || got.Vector.Get(Provenance) != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
}

func TestDebtLedgerShrinksMonotonically(t *testing.T) {
	// Property: raising any gauge tier never increases debt.
	f := func(raw [6]uint8, axis uint8) bool {
		v := NewVector()
		for i, a := range Axes() {
			v[a] = Tier(int(raw[i]) % int(MaxTier(a)+1))
		}
		before := DebtLedger("c", v)
		a := Axes()[int(axis)%6]
		if v[a] >= MaxTier(a) {
			return true
		}
		raised := v.Clone()
		raised[a]++
		after := DebtLedger("c", raised)
		return after.MinutesPerReuse() <= before.MinutesPerReuse() &&
			after.InterventionCount() <= before.InterventionCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDebtLedgerZeroAtMaxVector(t *testing.T) {
	v := NewVector()
	for _, a := range Axes() {
		v.MustSet(a, MaxTier(a))
	}
	led := DebtLedger("ideal", v)
	if led.InterventionCount() != 0 || led.MinutesPerReuse() != 0 {
		t.Fatalf("fully characterised component still has debt: %s", led)
	}
}

func TestDebtLedgerAllUnknownHasEveryAxis(t *testing.T) {
	led := DebtLedger("raw", NewVector())
	byAxis := map[Axis]int{}
	for _, it := range led.Items {
		byAxis[it.Axis] += it.PerReuse
	}
	for _, a := range Axes() {
		if byAxis[a] == 0 {
			t.Fatalf("all-unknown component has no debt on axis %s", a)
		}
	}
	if led.String() == "" {
		t.Fatal("empty ledger report")
	}
}

func TestPayoffCurveSortedAndComplete(t *testing.T) {
	steps := PayoffCurve(NewVector())
	if len(steps) != 6 {
		t.Fatalf("expected a payoff step per axis, got %d", len(steps))
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].MinutesSaved > steps[i-1].MinutesSaved {
			t.Fatal("payoff curve not sorted descending")
		}
	}
	// At max vector there are no further steps.
	v := NewVector()
	for _, a := range Axes() {
		v.MustSet(a, MaxTier(a))
	}
	if got := PayoffCurve(v); len(got) != 0 {
		t.Fatalf("max vector has payoff steps: %v", got)
	}
}
