package stream

import (
	"bytes"
	"strings"
	"testing"

	"fairflow/internal/telemetry"
)

func TestApplyPunctuationScript(t *testing.T) {
	script := `
# generated deployment
{"op":"install","queue":"live","policy":{"kind":"forward-all"}}
{"op":"install","queue":"steer","policy":{"kind":"direct-selection","capacity":16}}
{"op":"mark","label":"deployment-complete"}
`
	sched := NewScheduler()
	reg := telemetry.NewRegistry()
	sched.SetMetrics(reg)
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
	if marks := reg.Counter("stream.marks_total").Value(); marks != 1 {
		t.Fatalf("marks = %d", marks)
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

func TestReplayFeedsScheduler(t *testing.T) {
	// Capture a stream to bytes, then replay it through a fresh graph.
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, intSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 7; i++ {
		if err := enc.Encode(intItem(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	enc.Flush()

	sched := NewScheduler()
	var got []int64
	sched.Subscribe(func(q string, it Item) { got = append(got, it.Seq) })
	sched.Install("all", ForwardAll{})
	n, err := Replay(&buf, sched)
	if err != nil || n != 7 {
		t.Fatalf("replayed %d, %v", n, err)
	}
	if len(got) != 7 || got[0] != 1 || got[6] != 7 {
		t.Fatalf("delivered: %v", got)
	}
	// Truncated stream: replay reports the error and the partial count.
	var buf2 bytes.Buffer
	enc2, _ := NewEncoder(&buf2, intSchema())
	enc2.Encode(intItem(t, 1))
	enc2.Flush()
	data := buf2.Bytes()
	if _, err := Replay(bytes.NewReader(data[:len(data)-2]), NewScheduler()); err == nil {
		t.Fatal("truncated replay succeeded")
	}
}
