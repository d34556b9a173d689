package stream

import (
	"math"
	"testing"
	"time"
)

func aggSchema() *Schema {
	return &Schema{Name: "probe", Fields: []Field{
		{Name: "id", Type: TInt64},
		{Name: "temp", Type: TFloat64},
		{Name: "label", Type: TString},
	}}
}

func aggItem(t *testing.T, seq int64, temp float64) Item {
	t.Helper()
	rec, err := NewRecord(aggSchema(), seq, temp, "x")
	if err != nil {
		t.Fatal(err)
	}
	return Item{Seq: seq, Time: time.Unix(seq, 0), Payload: rec}
}

func TestAggregatingWindowEmitsSummaries(t *testing.T) {
	p, err := NewAggregatingWindow(aggSchema(), 3)
	if err != nil {
		t.Fatal(err)
	}
	var emitted []Item
	for i := int64(1); i <= 6; i++ {
		emitted = append(emitted, p.Admit(aggItem(t, i, float64(i)*10))...)
	}
	if len(emitted) != 2 {
		t.Fatalf("summaries = %d", len(emitted))
	}
	first := emitted[0].Payload
	// Summaries carry the synthetic summary schema.
	out := first.Schema
	if out.Name != "probe.agg" || len(out.Fields) != 3 {
		t.Fatalf("output schema: %+v", out)
	}
	if out.Fields[0].Name != "count" || out.Fields[1].Name != "id_mean" || out.Fields[2].Name != "temp_mean" {
		t.Fatalf("output fields: %+v", out.Fields)
	}
	if first.Values[0].(int64) != 3 {
		t.Fatalf("count: %v", first.Values[0])
	}
	if mean := first.Values[2].(float64); math.Abs(mean-20) > 1e-12 {
		t.Fatalf("temp mean: %v", mean)
	}
	second := emitted[1].Payload
	if mean := second.Values[2].(float64); math.Abs(mean-50) > 1e-12 {
		t.Fatalf("second window temp mean: %v", mean)
	}
	// Summary validates against its own schema.
	if err := first.Validate(); err != nil {
		t.Fatal(err)
	}
	// Timestamps come from the window's last member.
	if !emitted[0].Time.Equal(time.Unix(3, 0)) {
		t.Fatalf("summary time: %v", emitted[0].Time)
	}
}

func TestAggregatingWindowFlushPartial(t *testing.T) {
	p, _ := NewAggregatingWindow(aggSchema(), 10)
	p.Admit(aggItem(t, 1, 5))
	p.Admit(aggItem(t, 2, 15))
	out := p.Flush()
	if len(out) != 1 {
		t.Fatalf("flush emitted %d", len(out))
	}
	if out[0].Payload.Values[0].(int64) != 2 {
		t.Fatalf("partial count: %v", out[0].Payload.Values[0])
	}
	if p.Flush() != nil {
		t.Fatal("second flush emitted")
	}
}

func TestAggregatingWindowValidation(t *testing.T) {
	if _, err := NewAggregatingWindow(aggSchema(), 0); err == nil {
		t.Fatal("zero window accepted")
	}
	noNumeric := &Schema{Name: "s", Fields: []Field{{Name: "tag", Type: TString}}}
	if _, err := NewAggregatingWindow(noNumeric, 4); err == nil {
		t.Fatal("numeric-free schema accepted")
	}
	bad := &Schema{}
	if _, err := NewAggregatingWindow(bad, 4); err == nil {
		t.Fatal("invalid schema accepted")
	}
}

func TestAggregatingWindowDropsForeignRecords(t *testing.T) {
	p, _ := NewAggregatingWindow(aggSchema(), 2)
	foreign, _ := NewRecord(intSchema(), int64(1))
	if out := p.Admit(Item{Seq: 1, Payload: foreign}); out != nil {
		t.Fatal("foreign record aggregated")
	}
	// Window still needs two matching records.
	p.Admit(aggItem(t, 1, 1))
	if out := p.Admit(aggItem(t, 2, 3)); len(out) != 1 {
		t.Fatal("window broken by foreign record")
	}
}

func TestAggregatingWindowInScheduler(t *testing.T) {
	sched := NewScheduler()
	p, _ := NewAggregatingWindow(aggSchema(), 4)
	var got []Item
	sched.Subscribe(func(q string, it Item) { got = append(got, it) })
	sched.Install("monitor", p)
	for i := int64(1); i <= 8; i++ {
		sched.Ingest(aggItem(t, i, float64(i)))
	}
	if len(got) != 2 {
		t.Fatalf("summaries delivered = %d", len(got))
	}
	if got[0].Payload.Schema.Name != "probe.agg" {
		t.Fatalf("wrong schema: %s", got[0].Payload.Schema.Name)
	}
}
