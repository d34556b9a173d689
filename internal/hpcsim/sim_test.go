package hpcsim

import (
	"testing"
	"testing/quick"
)

func TestSimFiresInTimeOrder(t *testing.T) {
	s := New()
	var got []int
	s.At(3, func() { got = append(got, 3) })
	s.At(1, func() { got = append(got, 1) })
	s.At(2, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order: %v", got)
	}
	if s.Now() != 3 {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestSimSimultaneousEventsAreFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestSimAfterAndNestedScheduling(t *testing.T) {
	s := New()
	var fired []float64
	s.After(10, func() {
		fired = append(fired, s.Now())
		s.After(5, func() { fired = append(fired, s.Now()) })
	})
	s.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("fired: %v", fired)
	}
}

func TestSimCancel(t *testing.T) {
	s := New()
	ran := false
	e := s.At(1, func() { ran = true })
	e.Cancel()
	s.Run()
	if ran {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("Cancelled() false after cancel")
	}
	var nilEvt *Event
	nilEvt.Cancel() // must not panic
}

func TestSimPastSchedulingPanics(t *testing.T) {
	s := New()
	s.At(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(5, func() {})
}

func TestSimNegativeAfterClampsToNow(t *testing.T) {
	s := New()
	s.At(10, func() {
		s.After(-5, func() {})
	})
	s.Run() // must not panic
	if s.Processed() != 2 {
		t.Fatalf("processed = %d", s.Processed())
	}
}

func TestSimClockMonotone(t *testing.T) {
	// Property: for random event times, the observed firing clock never
	// decreases.
	f := func(raw []uint16) bool {
		s := New()
		prev := -1.0
		ok := true
		for _, r := range raw {
			at := float64(r % 1000)
			s.At(at, func() {
				if s.Now() < prev {
					ok = false
				}
				prev = s.Now()
			})
		}
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// buildOrderSim constructs a sim with a deliberately adversarial schedule:
// same-timestamp bursts, events that schedule more events at the *current*
// instant, cross-batch cancellations (an early event cancelling a later one
// in the same cohort), and cancellations of future cohorts. record appends
// each firing to *got.
func buildOrderSim(got *[]int) *Sim {
	s := New()
	record := func(id int) func() { return func() { *got = append(*got, id) } }
	// Burst of ten at t=1.
	for i := 0; i < 10; i++ {
		s.At(1, record(i))
	}
	// An event at t=1 that schedules two more at t=1 (fire after the burst)
	// and one at t=2.
	s.At(1, func() {
		*got = append(*got, 100)
		s.At(1, record(101))
		s.After(0, record(102))
		s.At(2, record(103))
	})
	// Same-cohort cancellation: 200 fires first and cancels 201.
	var victim *Event
	s.At(2, func() {
		*got = append(*got, 200)
		victim.Cancel()
	})
	victim = s.At(2, record(201))
	s.At(2, record(202))
	// Cancelled-only cohort at t=3: the clock must skip straight past it.
	s.At(3, record(300)).Cancel()
	s.At(4, record(400))
	return s
}

// TestStepBatchFIFOMatchesStep pins the batched dispatcher's contract: the
// exact firing sequence (and final clock/processed counts) of Run's
// cohort-at-a-time drain equal a one-event-at-a-time Step drain, including
// same-instant rescheduling and intra-cohort cancellation.
func TestStepBatchFIFOMatchesStep(t *testing.T) {
	var stepOrder []int
	ref := buildOrderSim(&stepOrder)
	for ref.Step() {
	}

	var batchOrder []int
	s := buildOrderSim(&batchOrder)
	s.Run()

	if len(stepOrder) == 0 {
		t.Fatal("reference run fired nothing")
	}
	if len(batchOrder) != len(stepOrder) {
		t.Fatalf("batch fired %d events, step fired %d\nbatch: %v\nstep:  %v",
			len(batchOrder), len(stepOrder), batchOrder, stepOrder)
	}
	for i := range stepOrder {
		if batchOrder[i] != stepOrder[i] {
			t.Fatalf("order diverges at %d\nbatch: %v\nstep:  %v", i, batchOrder, stepOrder)
		}
	}
	if s.Now() != ref.Now() || s.Processed() != ref.Processed() {
		t.Fatalf("batch now=%v processed=%d, step now=%v processed=%d",
			s.Now(), s.Processed(), ref.Now(), ref.Processed())
	}
	for _, id := range batchOrder {
		if id == 201 || id == 300 {
			t.Fatalf("cancelled event %d fired: %v", id, batchOrder)
		}
	}
}

// TestStepBatchRandomEquivalence drives random schedules through both
// dispatchers and requires identical firing sequences.
func TestStepBatchRandomEquivalence(t *testing.T) {
	f := func(raw []uint16) bool {
		build := func(got *[]int) *Sim {
			s := New()
			for i, r := range raw {
				id, at := i, float64(r%16) // heavy timestamp collisions
				s.At(at, func() {
					*got = append(*got, id)
					if id%3 == 0 {
						s.After(0, func() { *got = append(*got, -id) })
					}
				})
			}
			return s
		}
		var a, b []int
		sa := build(&a)
		for sa.Step() {
		}
		sb := build(&b)
		sb.Run() // batched
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestStepBatchReturnsZeroOnCancelledTail pins the drain-termination
// contract: a queue holding only cancelled events fires nothing and empties.
func TestStepBatchReturnsZeroOnCancelledTail(t *testing.T) {
	s := New()
	s.At(1, func() {}).Cancel()
	s.At(2, func() {}).Cancel()
	s.Run()
	if n := s.Processed(); n != 0 {
		t.Fatalf("processed = %d, want 0", n)
	}
	if len(s.heap) != 0 {
		t.Fatalf("%d cohort(s) queued after cancelled drain", len(s.heap))
	}
}
