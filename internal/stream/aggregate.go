package stream

import "fmt"

// AggregatingWindow is a tumbling window that emits one synthetic summary
// record per window instead of forwarding raw items: for each numeric field
// of the input schema it reports the mean, plus a count. This is the "data
// fusion"/summarisation tier of the data-semantics gauge applied inside the
// data scheduler — downstream monitoring consumers receive one record per
// window, not the firehose.
type AggregatingWindow struct {
	// Size is the window length in items.
	Size int

	in  *Schema
	out *Schema
	// idx maps output field position → input field position (−1 for count).
	idx   []int
	buf   []Item
	emits int64
}

// NewAggregatingWindow builds an aggregator over the input schema. The
// output schema is named "<input>.agg" with a leading int64 "count" field
// and one float64 "<field>_mean" per numeric (int64/float64) input field.
func NewAggregatingWindow(in *Schema, size int) (*AggregatingWindow, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if size < 1 {
		return nil, fmt.Errorf("stream: aggregation window must be ≥1")
	}
	out := &Schema{Name: in.Name + ".agg", Fields: []Field{{Name: "count", Type: TInt64}}}
	idx := []int{-1}
	for i, f := range in.Fields {
		if f.Type == TInt64 || f.Type == TFloat64 {
			out.Fields = append(out.Fields, Field{Name: f.Name + "_mean", Type: TFloat64})
			idx = append(idx, i)
		}
	}
	if len(out.Fields) == 1 {
		return nil, fmt.Errorf("stream: schema %q has no numeric fields to aggregate", in.Name)
	}
	return &AggregatingWindow{Size: size, in: in, out: out, idx: idx}, nil
}

// Admit implements Policy: buffers until the window fills, then emits one
// summary item (sequence = number of windows emitted, timestamp = last
// member's).
func (p *AggregatingWindow) Admit(it Item) []Item {
	if it.Payload.Schema == nil || !it.Payload.Schema.Equal(*p.in) {
		return nil // foreign records are not aggregable; drop
	}
	p.buf = append(p.buf, it)
	if len(p.buf) < p.Size {
		return nil
	}
	summary := p.summarise(p.buf)
	p.buf = p.buf[:0]
	return []Item{summary}
}

func (p *AggregatingWindow) summarise(window []Item) Item {
	values := make([]any, len(p.out.Fields))
	values[0] = int64(len(window))
	for o := 1; o < len(p.out.Fields); o++ {
		src := p.idx[o]
		var sum float64
		for _, it := range window {
			switch v := it.Payload.Values[src].(type) {
			case int64:
				sum += float64(v)
			case float64:
				sum += v
			}
		}
		values[o] = sum / float64(len(window))
	}
	p.emits++
	return Item{
		Seq:     p.emits,
		Time:    window[len(window)-1].Time,
		Payload: Record{Schema: p.out, Values: values},
	}
}

// Control implements Policy.
func (p *AggregatingWindow) Control(Punctuation) []Item { return nil }

// Flush implements Policy: a partial window is summarised rather than
// dropped.
func (p *AggregatingWindow) Flush() []Item {
	if len(p.buf) == 0 {
		return nil
	}
	summary := p.summarise(p.buf)
	p.buf = p.buf[:0]
	return []Item{summary}
}

// Name implements Policy.
func (p *AggregatingWindow) Name() string {
	return fmt.Sprintf("aggregate-window(%d)", p.Size)
}

// ensure interface conformance at compile time.
var _ Policy = (*AggregatingWindow)(nil)
