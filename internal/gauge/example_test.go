package gauge_test

import (
	"fmt"

	"fairflow/internal/gauge"
)

// Example shows the basic gauge workflow: assess a component, check what
// automation its metadata unlocks, and ask what investment pays off next.
func Example() {
	as := gauge.NewAssessment("genotype-converter")
	as.Attest(gauge.DataAccess, 2, "reads POSIX CSV")
	as.Attest(gauge.DataSchema, 3, "schemas/genotype.json")

	fmt.Println("auto-convert unlocked:", gauge.Unlocked(as.Vector, gauge.CapAutoConvert))

	led := gauge.DebtLedger(as.Component, as.Vector)
	fmt.Printf("debt: %d interventions per reuse\n", led.InterventionCount())

	best := gauge.PayoffCurve(as.Vector)[0]
	fmt.Printf("best next investment: %s to tier %d\n", best.Axis, best.ToTier)
	// Output:
	// auto-convert unlocked: true
	// debt: 29 interventions per reuse
	// best next investment: data-access to tier 3
}

// ExampleVector_Meets checks a vector against a requirement vector: at
// least the required tier on every axis the requirement names.
func ExampleVector_Meets() {
	v := gauge.NewVector()
	v.MustSet(gauge.Granularity, 2).MustSet(gauge.Customizability, 1)
	req := gauge.NewVector().MustSet(gauge.Granularity, 2)
	fmt.Println(v.Meets(req), req.Meets(v))
	// Output:
	// true false
}
