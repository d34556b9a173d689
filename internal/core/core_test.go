package core

import (
	"strings"
	"testing"

	"fairflow/internal/gauge"
	"fairflow/internal/schema"
	"fairflow/internal/skel"
)

// buildComponent makes a valid component with the given gauge tiers.
func buildComponent(name string, ports []Port, tiers map[gauge.Axis]gauge.Tier) *Component {
	as := gauge.NewAssessment(name)
	for a, t := range tiers {
		as.Vector.MustSet(a, t)
	}
	return &Component{Name: name, Kind: Executable, Assessment: as, Ports: ports}
}

func registryWithFormats(t *testing.T) *schema.Registry {
	t.Helper()
	r := schema.NewRegistry()
	for _, n := range []string{"bed", "gff3", "csvmat"} {
		if err := r.Register(schema.Format{Name: n, Version: 1, Family: schema.ASCII, Kind: schema.Table,
			Fields: []schema.Field{{Name: "x", Type: schema.String}}}); err != nil {
			t.Fatal(err)
		}
	}
	pass := func(v any) (any, error) { return v, nil }
	if err := r.AddConverter(schema.Converter{From: "bed@v1", To: "gff3@v1", Apply: pass}); err != nil {
		t.Fatal(err)
	}
	return r
}

func twoStepWorkflow(producerTiers map[gauge.Axis]gauge.Tier, fromFormat, toFormat string) *Workflow {
	producer := buildComponent("producer",
		[]Port{{Name: "out", Direction: Out, FormatID: fromFormat}}, producerTiers)
	consumer := buildComponent("consumer",
		[]Port{{Name: "in", Direction: In, FormatID: toFormat}},
		map[gauge.Axis]gauge.Tier{gauge.DataSchema: 1, gauge.Granularity: 2})
	return &Workflow{
		Name:       "wf",
		Components: []*Component{producer, consumer},
		Edges:      []Edge{{FromComponent: "producer", FromPort: "out", ToComponent: "consumer", ToPort: "in"}},
	}
}

func highTiers() map[gauge.Axis]gauge.Tier {
	return map[gauge.Axis]gauge.Tier{
		gauge.DataAccess: 2, gauge.DataSchema: 3, gauge.Granularity: 2,
	}
}

func TestComponentValidate(t *testing.T) {
	good := buildComponent("c", []Port{{Name: "p", Direction: Out, FormatID: "bed@v1"}},
		map[gauge.Axis]gauge.Tier{gauge.DataSchema: 1})
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	noName := buildComponent("", nil, nil)
	if noName.Validate() == nil {
		t.Fatal("unnamed component accepted")
	}
	noAssess := &Component{Name: "x"}
	if noAssess.Validate() == nil {
		t.Fatal("assessment-less component accepted")
	}
	dupPort := buildComponent("c", []Port{
		{Name: "p", Direction: Out}, {Name: "p", Direction: In}}, nil)
	if dupPort.Validate() == nil {
		t.Fatal("duplicate port accepted")
	}
	badDir := buildComponent("c", []Port{{Name: "p", Direction: "sideways"}}, nil)
	if badDir.Validate() == nil {
		t.Fatal("bad direction accepted")
	}
}

func TestComponentMetadataConsistency(t *testing.T) {
	// Claiming schema tier 1 without naming formats must fail.
	lying := buildComponent("liar", []Port{{Name: "out", Direction: Out}},
		map[gauge.Axis]gauge.Tier{gauge.DataSchema: 1})
	if lying.Validate() == nil {
		t.Fatal("schema claim without formats accepted")
	}
	// Claiming a machine-actionable model without one must fail.
	modelless := buildComponent("m", nil, map[gauge.Axis]gauge.Tier{gauge.Customizability: 2})
	if modelless.Validate() == nil {
		t.Fatal("customizability claim without model accepted")
	}
	modelless.Customization = &skel.ModelSpec{Name: "m", Fields: []skel.FieldSpec{
		{Name: "n", Kind: skel.KindInt, Default: 1}}}
	if err := modelless.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkflowValidateEdges(t *testing.T) {
	w := twoStepWorkflow(highTiers(), "bed@v1", "bed@v1")
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	badFrom := twoStepWorkflow(highTiers(), "bed@v1", "bed@v1")
	badFrom.Edges[0].FromComponent = "ghost"
	if badFrom.Validate() == nil {
		t.Fatal("edge from unknown component accepted")
	}
	wrongDir := twoStepWorkflow(highTiers(), "bed@v1", "bed@v1")
	wrongDir.Edges[0].FromPort = "in"
	wrongDir.Edges[0].FromComponent = "consumer"
	if wrongDir.Validate() == nil {
		t.Fatal("edge from an input port accepted")
	}
}

func TestWorkflowCycleDetection(t *testing.T) {
	a := buildComponent("a", []Port{
		{Name: "in", Direction: In, FormatID: "bed@v1"},
		{Name: "out", Direction: Out, FormatID: "bed@v1"}}, map[gauge.Axis]gauge.Tier{gauge.DataSchema: 1})
	b := buildComponent("b", []Port{
		{Name: "in", Direction: In, FormatID: "bed@v1"},
		{Name: "out", Direction: Out, FormatID: "bed@v1"}}, map[gauge.Axis]gauge.Tier{gauge.DataSchema: 1})
	w := &Workflow{Name: "cyc", Components: []*Component{a, b}, Edges: []Edge{
		{FromComponent: "a", FromPort: "out", ToComponent: "b", ToPort: "in"},
		{FromComponent: "b", FromPort: "out", ToComponent: "a", ToPort: "in"},
	}}
	if w.Validate() == nil {
		t.Fatal("cyclic workflow accepted")
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	w := twoStepWorkflow(highTiers(), "bed@v1", "bed@v1")
	order, err := w.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "producer" || order[1] != "consumer" {
		t.Fatalf("order: %v", order)
	}
}

func TestWorkflowDebtDecreasesWithTiers(t *testing.T) {
	low := twoStepWorkflow(map[gauge.Axis]gauge.Tier{}, "", "")
	// Clear format claims so validation passes at tier 0.
	low.Components[1].Assessment = gauge.NewAssessment("consumer")
	low.Components[1].Ports[0].FormatID = ""
	hi := twoStepWorkflow(highTiers(), "bed@v1", "bed@v1")
	_, lowMin := low.Debt()
	_, hiMin := hi.Debt()
	if hiMin >= lowMin {
		t.Fatalf("higher tiers did not reduce debt: %.0f vs %.0f", hiMin, lowMin)
	}
}

func TestPlannerDirectEdge(t *testing.T) {
	pl := &Planner{Formats: registryWithFormats(t)}
	w := twoStepWorkflow(highTiers(), "bed@v1", "bed@v1")
	plan, err := pl.PlanReuse(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 3 { // 1 edge + 2 components
		t.Fatalf("steps = %d", len(plan.Steps))
	}
	if plan.Steps[0].Kind != StepDirect {
		t.Fatalf("edge step: %+v", plan.Steps[0])
	}
}

func TestPlannerAutoConvert(t *testing.T) {
	pl := &Planner{Formats: registryWithFormats(t)}
	w := twoStepWorkflow(highTiers(), "bed@v1", "gff3@v1")
	plan, err := pl.PlanReuse(w)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Steps[0].Kind != StepAutoConvert {
		t.Fatalf("edge step: %+v", plan.Steps[0])
	}
	if !strings.Contains(plan.Steps[0].Detail, "bed@v1 → gff3@v1") {
		t.Fatalf("detail: %s", plan.Steps[0].Detail)
	}
}

func TestPlannerHumanWhenTiersTooLow(t *testing.T) {
	pl := &Planner{Formats: registryWithFormats(t)}
	// Producer has the schema recorded (tier 1: formats named) but not the
	// full tier-3 schema that CapAutoConvert requires.
	w := twoStepWorkflow(map[gauge.Axis]gauge.Tier{gauge.DataSchema: 1, gauge.Granularity: 2},
		"bed@v1", "gff3@v1")
	plan, err := pl.PlanReuse(w)
	if err != nil {
		t.Fatal(err)
	}
	step := plan.Steps[0]
	if step.Kind != StepHuman {
		t.Fatalf("edge step: %+v", step)
	}
	if step.Gaps[gauge.DataSchema] == 0 {
		t.Fatalf("human step should name the schema gap: %+v", step.Gaps)
	}
}

func TestPlannerHumanWhenNoConversionPath(t *testing.T) {
	pl := &Planner{Formats: registryWithFormats(t)}
	// bed → csvmat has no converter registered.
	w := twoStepWorkflow(highTiers(), "bed@v1", "csvmat@v1")
	plan, err := pl.PlanReuse(w)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Steps[0].Kind != StepHuman {
		t.Fatalf("edge step: %+v", plan.Steps[0])
	}
}

func TestPlannerGenerateStep(t *testing.T) {
	pl := &Planner{Formats: registryWithFormats(t)}
	w := twoStepWorkflow(highTiers(), "bed@v1", "bed@v1")
	prod, _ := w.Component("producer")
	prod.Customization = &skel.ModelSpec{Name: "gen", Fields: []skel.FieldSpec{
		{Name: "n", Kind: skel.KindInt, Default: 1}}}
	prod.Assessment.Vector.MustSet(gauge.Customizability, 2)
	plan, err := pl.PlanReuse(w)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, s := range plan.Steps {
		if s.Subject == "producer" && s.Kind == StepGenerate {
			found = true
		}
	}
	if !found {
		t.Fatalf("no generate step: %+v", plan.Steps)
	}
}

func TestPlanMetrics(t *testing.T) {
	p := Plan{Steps: []Step{
		{Kind: StepDirect}, {Kind: StepHuman}, {Kind: StepAutoConvert}, {Kind: StepHuman},
	}}
	if p.Automated() != 2 || len(p.HumanSteps()) != 2 {
		t.Fatalf("metrics: %d automated, %d human", p.Automated(), len(p.HumanSteps()))
	}
	if p.AutomationFraction() != 0.5 {
		t.Fatalf("fraction = %v", p.AutomationFraction())
	}
	if (Plan{}).AutomationFraction() != 1 {
		t.Fatal("empty plan should be fully automated")
	}
}

func TestContinuumMonotone(t *testing.T) {
	pl := &Planner{Formats: registryWithFormats(t)}
	// Start everything at zero metadata.
	producer := buildComponent("producer", []Port{{Name: "out", Direction: Out}}, nil)
	consumer := buildComponent("consumer", []Port{{Name: "in", Direction: In}}, nil)
	w := &Workflow{Name: "wf", Components: []*Component{producer, consumer},
		Edges: []Edge{{FromComponent: "producer", FromPort: "out", ToComponent: "consumer", ToPort: "in"}}}

	stages := []ContinuumStage{
		{Label: "black-box", Raise: map[gauge.Axis]gauge.Tier{}},
		{Label: "+granularity", Raise: map[gauge.Axis]gauge.Tier{gauge.Granularity: 2}},
		{Label: "+provenance", Raise: map[gauge.Axis]gauge.Tier{gauge.Provenance: 2}},
	}
	points, err := pl.Continuum(w, stages)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].HumanSteps > points[i-1].HumanSteps {
			t.Fatalf("human steps increased along the continuum: %+v", points)
		}
		if points[i].DebtMinutes > points[i-1].DebtMinutes {
			t.Fatalf("debt increased along the continuum: %+v", points)
		}
	}
	if points[2].AutomationFraction <= points[0].AutomationFraction {
		t.Fatalf("automation did not improve: %+v", points)
	}
	// Original vectors restored.
	if producer.Assessment.Vector.Get(gauge.Granularity) != 0 {
		t.Fatal("Continuum leaked vector mutations")
	}
}

func TestSortStepsHumanFirst(t *testing.T) {
	steps := []Step{
		{Kind: StepDirect, Subject: "b"},
		{Kind: StepHuman, Subject: "z"},
		{Kind: StepGenerate, Subject: "a"},
	}
	SortSteps(steps)
	if steps[0].Kind != StepHuman || steps[2].Kind != StepDirect {
		t.Fatalf("order: %+v", steps)
	}
}

func TestPlannerRequiresRegistry(t *testing.T) {
	pl := &Planner{}
	if _, err := pl.PlanReuse(&Workflow{Name: "w"}); err == nil {
		t.Fatal("nil registry accepted")
	}
}

func TestPlannerFirstPreciousSemantics(t *testing.T) {
	pl := &Planner{Formats: registryWithFormats(t)}
	w := twoStepWorkflow(highTiers(), "bed@v1", "bed@v1")
	cons, _ := w.Component("consumer")
	cons.Ports[0].SemanticTerms = []string{"first-precious"}

	// Producer has no recorded delivery semantics: the edge needs a human.
	plan, err := pl.PlanReuse(w)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Steps[0].Kind != StepHuman {
		t.Fatalf("first-precious edge: %+v", plan.Steps[0])
	}
	if plan.Steps[0].Gaps[gauge.DataSemantics] != 1 {
		t.Fatalf("gap should name data-semantics: %+v", plan.Steps[0].Gaps)
	}

	// Recording the producer's consumption model restores automation.
	prod, _ := w.Component("producer")
	prod.Assessment.Vector.MustSet(gauge.DataSemantics, 1)
	plan, err = pl.PlanReuse(w)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Steps[0].Kind != StepDirect {
		t.Fatalf("edge after semantics recorded: %+v", plan.Steps[0])
	}
}
