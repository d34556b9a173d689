package stream

import (
	"strings"
	"testing"
)

func TestApplyPunctuationScript(t *testing.T) {
	script := `
# generated deployment
{"op":"install","queue":"live","policy":{"kind":"forward-all"}}
{"op":"install","queue":"steer","policy":{"kind":"direct-selection","capacity":16}}
{"op":"mark","label":"deployment-complete"}
`
	sched := NewScheduler()
	applied, err := ApplyPunctuationScript(strings.NewReader(script), sched)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 3 {
		t.Fatalf("applied = %d", applied)
	}
	queues := sched.Queues()
	if len(queues) != 2 || queues[0].Name != "live" || queues[1].Name != "steer" {
		t.Fatalf("queues: %+v", queues)
	}
}

func TestApplyPunctuationScriptErrors(t *testing.T) {
	cases := []string{
		`{"op":"install","queue":"q"}`, // no policy
		`not json`,                     // parse error
		`{"op":"install","queue":"q","policy":{"kind":"warp"}}`, // unknown kind
		`{"op":"flush","queue":"ghost"}`,                        // unknown queue
	}
	for i, script := range cases {
		sched := NewScheduler()
		if _, err := ApplyPunctuationScript(strings.NewReader(script), sched); err == nil {
			t.Errorf("bad script %d accepted", i)
		}
	}
}

// TestGeneratedDeploymentDrivesScheduler closes the loop: a Skel-generated
// punctuation file (as produced by skel.StreamTemplates) configures a live
// scheduler that then forwards data. The script literal below is exactly
// what the generator emits for "live=forward-all, monitor=sample:2".
func TestGeneratedDeploymentDrivesScheduler(t *testing.T) {
	script := `{"op":"install","queue":"live","policy":{"kind":"forward-all"}}
{"op":"install","queue":"monitor","policy":{"kind":"sample","n":2}}
{"op":"mark","label":"deployment-complete"}`
	sched := NewScheduler()
	if _, err := ApplyPunctuationScript(strings.NewReader(script), sched); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	sched.Subscribe(func(q string, it Item) { counts[q]++ })
	for i := int64(1); i <= 10; i++ {
		sched.Ingest(intItem(t, i))
	}
	if counts["live"] != 10 || counts["monitor"] != 5 {
		t.Fatalf("deliveries: %v", counts)
	}
}
