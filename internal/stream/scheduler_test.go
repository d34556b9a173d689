package stream

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

func intSchema() *Schema {
	return &Schema{Name: "n", Fields: []Field{{Name: "v", Type: TInt64}}}
}

func intItem(t *testing.T, seq int64) Item {
	t.Helper()
	rec, err := NewRecord(intSchema(), seq)
	if err != nil {
		t.Fatal(err)
	}
	return Item{Seq: seq, Time: time.Unix(seq, 0), Payload: rec}
}

func TestForwardAllPolicy(t *testing.T) {
	p := ForwardAll{}
	it := intItem(t, 1)
	out := p.Admit(it)
	if len(out) != 1 || out[0].Seq != 1 {
		t.Fatalf("forward-all: %v", out)
	}
	if p.Flush() != nil || p.Control(Punctuation{Op: OpSelect}) != nil {
		t.Fatal("forward-all buffered something")
	}
}

func TestSlidingWindowCountTumbling(t *testing.T) {
	p, err := NewSlidingWindowCount(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	var emissions [][]Item
	for i := int64(1); i <= 9; i++ {
		if out := p.Admit(intItem(t, i)); out != nil {
			emissions = append(emissions, out)
		}
	}
	if len(emissions) != 3 {
		t.Fatalf("tumbling window emitted %d times", len(emissions))
	}
	if emissions[1][0].Seq != 4 || emissions[1][2].Seq != 6 {
		t.Fatalf("second window: %v", emissions[1])
	}
}

func TestSlidingWindowCountSliding(t *testing.T) {
	p, _ := NewSlidingWindowCount(3, 1)
	var count int
	for i := int64(1); i <= 5; i++ {
		if out := p.Admit(intItem(t, i)); out != nil {
			count++
			if len(out) != 3 {
				t.Fatalf("window size %d", len(out))
			}
		}
	}
	// Windows complete at arrivals 3,4,5.
	if count != 3 {
		t.Fatalf("slide count = %d", count)
	}
	flushed := p.Flush()
	if len(flushed) != 3 {
		t.Fatalf("flush returned %d", len(flushed))
	}
	if out := p.Admit(intItem(t, 9)); out != nil {
		t.Fatal("window not reset by flush")
	}
}

func TestSlidingWindowValidation(t *testing.T) {
	if _, err := NewSlidingWindowCount(0, 1); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := NewSlidingWindowCount(1, 0); err == nil {
		t.Fatal("zero stride accepted")
	}
	if _, err := NewSlidingWindowTime(0); err == nil {
		t.Fatal("zero span accepted")
	}
}

func TestSlidingWindowTimeEvictsOld(t *testing.T) {
	p, _ := NewSlidingWindowTime(5 * time.Second)
	p.Admit(intItem(t, 1)) // t=1s
	p.Admit(intItem(t, 3)) // t=3s
	out := p.Admit(intItem(t, 10))
	if len(out) != 1 || out[0].Seq != 10 {
		t.Fatalf("time window kept stale items: %v", out)
	}
	out = p.Admit(intItem(t, 12))
	if len(out) != 2 {
		t.Fatalf("time window: %v", out)
	}
}

func TestDirectSelectionHoldsUntilSelected(t *testing.T) {
	p, err := NewDirectSelection(10)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		if out := p.Admit(intItem(t, i)); out != nil {
			t.Fatal("selection auto-forwarded")
		}
	}
	out := p.Control(Punctuation{Op: OpSelect, Seqs: []int64{2, 4}})
	if len(out) != 2 || out[0].Seq != 2 || out[1].Seq != 4 {
		t.Fatalf("selected: %v", out)
	}
	// Selected items left the queue.
	if again := p.Control(Punctuation{Op: OpSelect, Seqs: []int64{2}}); len(again) != 0 {
		t.Fatal("item selected twice")
	}
	if rest := p.Flush(); len(rest) != 3 {
		t.Fatalf("flush returned %d", len(rest))
	}
}

func TestDirectSelectionCapacityEvicts(t *testing.T) {
	p, _ := NewDirectSelection(3)
	for i := int64(1); i <= 5; i++ {
		p.Admit(intItem(t, i))
	}
	if out := p.Control(Punctuation{Op: OpSelect, Seqs: []int64{1}}); len(out) != 0 {
		t.Fatal("evicted item still selectable")
	}
	if out := p.Control(Punctuation{Op: OpSelect, Seqs: []int64{5}}); len(out) != 1 {
		t.Fatal("recent item lost")
	}
	if _, err := NewDirectSelection(0); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestSampleEveryN(t *testing.T) {
	p, err := NewSampleEveryN(3)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for i := int64(1); i <= 9; i++ {
		for _, it := range p.Admit(intItem(t, i)) {
			got = append(got, it.Seq)
		}
	}
	if len(got) != 3 || got[0] != 3 || got[2] != 9 {
		t.Fatalf("sampled: %v", got)
	}
	if _, err := NewSampleEveryN(0); err == nil {
		t.Fatal("zero interval accepted")
	}
}

func TestSchedulerInstallAndIngest(t *testing.T) {
	s := NewScheduler()
	var mu sync.Mutex
	got := map[string][]int64{}
	s.Subscribe(func(q string, it Item) {
		mu.Lock()
		got[q] = append(got[q], it.Seq)
		mu.Unlock()
	})
	if err := s.Install("all", ForwardAll{}); err != nil {
		t.Fatal(err)
	}
	samp, _ := NewSampleEveryN(2)
	if err := s.Install("sampled", samp); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 4; i++ {
		s.Ingest(intItem(t, i))
	}
	if len(got["all"]) != 4 || len(got["sampled"]) != 2 {
		t.Fatalf("deliveries: %v", got)
	}
	infos := s.Queues()
	if len(infos) != 2 || infos[0].Name != "all" || infos[0].Admitted != 4 {
		t.Fatalf("queue info: %+v", infos)
	}
}

func TestSchedulerInstallValidation(t *testing.T) {
	s := NewScheduler()
	if err := s.Install("", ForwardAll{}); err == nil {
		t.Fatal("empty queue name accepted")
	}
	if err := s.Punctuate(Punctuation{Op: OpInstall, Queue: "q"}); err == nil {
		t.Fatal("nil policy accepted")
	}
	if err := s.Install("q", ForwardAll{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Install("q", ForwardAll{}); err == nil {
		t.Fatal("duplicate queue accepted")
	}
	if err := s.Punctuate(Punctuation{Op: OpFlush, Queue: "ghost"}); err == nil {
		t.Fatal("unknown queue accepted")
	}
	if err := s.Punctuate(Punctuation{Op: "warp", Queue: "q"}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestSchedulerActivateDeactivate(t *testing.T) {
	s := NewScheduler()
	var n int
	s.Subscribe(func(string, Item) { n++ })
	s.Install("q", ForwardAll{})
	s.Ingest(intItem(t, 1))
	if err := s.Punctuate(Punctuation{Op: OpDeactivate, Queue: "q"}); err != nil {
		t.Fatal(err)
	}
	s.Ingest(intItem(t, 2))
	if err := s.Punctuate(Punctuation{Op: OpActivate, Queue: "q"}); err != nil {
		t.Fatal(err)
	}
	s.Ingest(intItem(t, 3))
	if n != 2 {
		t.Fatalf("deliveries = %d, want 2 (deactivated item skipped)", n)
	}
}

func TestSchedulerRuntimePolicySwap(t *testing.T) {
	// The Fig. 5 scenario: start with forward-all, then a steering process
	// installs a direct-selection queue at runtime and pulls one item out.
	s := NewScheduler()
	var mu sync.Mutex
	got := map[string][]int64{}
	s.Subscribe(func(q string, it Item) {
		mu.Lock()
		got[q] = append(got[q], it.Seq)
		mu.Unlock()
	})
	s.Install("live", ForwardAll{})
	s.Ingest(intItem(t, 1))

	sel, _ := NewDirectSelection(100)
	if err := s.Punctuate(Punctuation{Op: OpInstall, Queue: "steered", Policy: sel}); err != nil {
		t.Fatal(err)
	}
	for i := int64(2); i <= 6; i++ {
		s.Ingest(intItem(t, i))
	}
	if err := s.Punctuate(Punctuation{Op: OpSelect, Queue: "steered", Seqs: []int64{4}}); err != nil {
		t.Fatal(err)
	}
	if len(got["live"]) != 6 {
		t.Fatalf("live queue: %v", got["live"])
	}
	if len(got["steered"]) != 1 || got["steered"][0] != 4 {
		t.Fatalf("steered queue: %v", got["steered"])
	}
}

func TestSchedulerRemoveFlushesDownstream(t *testing.T) {
	s := NewScheduler()
	var got []int64
	s.Subscribe(func(q string, it Item) { got = append(got, it.Seq) })
	win, _ := NewSlidingWindowCount(10, 10)
	s.Install("w", win)
	s.Ingest(intItem(t, 1))
	s.Ingest(intItem(t, 2))
	if err := s.Punctuate(Punctuation{Op: OpRemove, Queue: "w"}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("remove did not flush buffered items: %v", got)
	}
	if len(s.Queues()) != 0 {
		t.Fatal("queue not removed")
	}
	s.Ingest(intItem(t, 3))
	if len(got) != 2 {
		t.Fatal("removed queue still forwarding")
	}
}

// TestSchedulerMarks: a mark needs no queue and changes none.
func TestSchedulerMarks(t *testing.T) {
	s := NewScheduler()
	if err := s.Install("all", ForwardAll{}); err != nil {
		t.Fatal(err)
	}
	before := s.Queues()
	if err := s.Punctuate(Punctuation{Op: OpMark, Label: "group-1"}); err != nil {
		t.Fatal(err)
	}
	if after := s.Queues(); !reflect.DeepEqual(after, before) {
		t.Fatalf("mark changed the queues: %+v, was %+v", after, before)
	}
}

func TestSchedulerConcurrentIngest(t *testing.T) {
	s := NewScheduler()
	var mu sync.Mutex
	var n int
	s.Subscribe(func(string, Item) {
		mu.Lock()
		n++
		mu.Unlock()
	})
	s.Install("all", ForwardAll{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Ingest(intItem(t, int64(g*1000+i)))
			}
		}(g)
	}
	wg.Wait()
	if n != 1600 {
		t.Fatalf("deliveries = %d", n)
	}
	infos := s.Queues()
	if infos[0].Admitted != 1600 || infos[0].Forwarded != 1600 {
		t.Fatalf("counters: %+v", infos[0])
	}
}
