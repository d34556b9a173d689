// Package hpcsim is a discrete-event simulator of a batch-scheduled HPC
// system: compute nodes, a FIFO batch scheduler with walltime-limited
// allocations, a shared parallel filesystem with load-dependent bandwidth
// and processor-sharing among concurrent transfers, and node-failure
// injection.
//
// It is the substitute for the paper's physical testbeds (ORNL Summit and an
// institutional cluster). Experiments B (checkpoint policies) and D
// (iRF-LOOP campaign scheduling) both measure effects that depend only on
// the statistical behaviour of job runtimes, filesystem contention and
// allocation limits — which this package models explicitly, reproducibly and
// at any scale, from a unit test to a 4608-node machine.
//
// Time is simulated seconds (float64). All stochastic behaviour flows from a
// caller-provided seed.
package hpcsim

import (
	"fmt"
)

// Event is a scheduled callback. Events are ordered by time, then by
// scheduling sequence (FIFO among simultaneous events). A pending event may
// be cancelled.
type Event struct {
	at        float64
	fn        func()
	cancelled bool
}

// Cancel prevents a pending event from firing. Cancelling an already-fired
// or already-cancelled event is a no-op.
func (e *Event) Cancel() {
	if e != nil {
		e.cancelled = true
	}
}

// Cancelled reports whether the event was cancelled.
func (e *Event) Cancelled() bool { return e != nil && e.cancelled }

// group is every event scheduled at one instant, in scheduling order.
// Appends happen in At-call order, so the slice *is* the FIFO — tie-breaking
// needs no sequence numbers. head marks how far a drain has progressed;
// events a callback schedules at the group's own instant land at the tail
// and are picked up by the drain still in flight.
type group struct {
	at     float64
	events []*Event
	head   int
}

// gentry is one group's heap record. The ordering key lives *in the entry*,
// by value: a sift never dereferences a *group, so the O(log n) comparisons
// per push/pop walk contiguous memory instead of chasing pointers.
type gentry struct {
	at float64
	g  *group
}

// groupHeap is a binary min-heap of timestamp cohorts, ordered by time.
// One entry per *distinct* timestamp — the byGroup map in Sim guarantees
// uniqueness, so no tie-break is needed — which is the structural batching
// win: a 10,000-task completion storm at one instant costs one heap pop,
// not 10,000. The sift operations are hand-specialised; the generic
// container/heap drives every comparison through interface dispatch, direct
// slice code inlines.
type groupHeap []gentry

// push inserts an entry, restoring heap order with an inlined sift-up.
func (h *groupHeap) push(ent gentry) {
	*h = append(*h, ent)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].at <= s[i].at {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes the minimum entry, restoring heap order with an inlined
// sift-down.
func (h *groupHeap) pop() {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	s[n] = gentry{}
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && s[r].at < s[l].at {
			min = r
		}
		if s[i].at <= s[min].at {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
}

// Sim is the simulation kernel: a clock and an event queue.
type Sim struct {
	now float64
	// heap orders the distinct pending timestamps; byGroup finds the cohort
	// for a timestamp already queued, so a same-instant burst appends to an
	// existing group instead of growing the heap.
	heap    groupHeap
	byGroup map[float64]*group
	// free recycles drained groups (bounded), so steady-state scheduling
	// allocates no group headers and reuses their event slices.
	free []*group
	// processed counts fired (non-cancelled) events, a cheap progress and
	// runaway indicator.
	processed int64
}

// New creates a simulation kernel. The kernel itself draws no random
// numbers: components that need a stream (filesystem load, failures) own a
// seeded one.
func New() *Sim {
	return &Sim{byGroup: map[float64]*group{}}
}

// Now returns the current simulated time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Processed reports how many events have fired.
func (s *Sim) Processed() int64 { return s.processed }

// At schedules fn at absolute simulated time t (which must not be in the
// past) and returns a cancellable handle.
func (s *Sim) At(t float64, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("hpcsim: scheduling event at %.6f before now %.6f", t, s.now))
	}
	e := &Event{at: t, fn: fn}
	g := s.byGroup[t]
	if g == nil {
		g = s.newGroup(t)
		s.byGroup[t] = g
		s.heap.push(gentry{at: t, g: g})
	}
	g.events = append(g.events, e)
	return e
}

// newGroup takes a recycled group or allocates one.
func (s *Sim) newGroup(t float64) *group {
	if n := len(s.free); n > 0 {
		g := s.free[n-1]
		s.free = s.free[:n-1]
		g.at = t
		return g
	}
	return &group{at: t}
}

// retire removes the exhausted root group from the queue and recycles it.
func (s *Sim) retire(g *group) {
	s.heap.pop()
	delete(s.byGroup, g.at)
	g.events = g.events[:0]
	g.head = 0
	if len(s.free) < 64 {
		s.free = append(s.free, g)
	}
}

// After schedules fn after d simulated seconds.
func (s *Sim) After(d float64, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Step fires the next pending event. It returns false when the queue is
// empty.
func (s *Sim) Step() bool {
	for len(s.heap) > 0 {
		g := s.heap[0].g
		if g.head == len(g.events) {
			s.retire(g)
			continue
		}
		e := g.events[g.head]
		g.events[g.head] = nil
		g.head++
		// Check at fire time: an earlier same-instant event may have
		// cancelled this one after it was queued.
		if e.cancelled {
			continue
		}
		s.now = g.at
		s.processed++
		e.fn()
		return true
	}
	return false
}

// drainGroup fires every live event in the root group — including events a
// callback schedules *at* the group's instant while the drain runs, which
// append to the same cohort — in FIFO order, then retires the group. Any
// event a callback schedules at a *later* time lands in another group and
// cannot displace the root (its time is strictly greater), so g stays the
// minimum for the whole drain.
func (s *Sim) drainGroup(g *group) {
	for g.head < len(g.events) {
		e := g.events[g.head]
		g.events[g.head] = nil
		g.head++
		if e.cancelled {
			continue
		}
		s.now = g.at
		s.processed++
		e.fn()
	}
	s.retire(g)
}

// Run fires events until the queue drains. It dispatches whole
// same-timestamp cohorts, one heap pop per cohort instead of one per event —
// same-time bursts are the common shape of campaign replays — and the
// observable order is identical to a Step loop.
func (s *Sim) Run() {
	for len(s.heap) > 0 {
		s.drainGroup(s.heap[0].g)
	}
}
