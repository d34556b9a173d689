package bench

import (
	"sort"
	"sync/atomic"
	"time"

	"fairflow/internal/cheetah"
)

// clock is the benchmark's one monotonic time base: payload stamps and
// trace spans are nanoseconds since the same instant.
type clock struct{ base time.Time }

func newClock() *clock         { return &clock{base: time.Now()} }
func (c *clock) now() int64    { return int64(time.Since(c.base)) }
func micros(ns int64) float64  { return float64(ns) / 1e3 }
func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// stamps holds the entry and exit time of every Execute call made on one
// executor. The payload is measured, never assumed: Σ(exit−entry) is what
// the engines' overhead is computed against.
type stamps struct {
	clk   *clock
	slots int // concurrent Execute calls this executor serves
	next  atomic.Int64
	entry []int64
	exit  []int64
	// extra counts calls beyond the preallocated capacity (a run executed
	// more than once); the output check fails on any.
	extra atomic.Int64
}

func newStamps(clk *clock, slots, capacity int) *stamps {
	return &stamps{clk: clk, slots: slots, entry: make([]int64, capacity), exit: make([]int64, capacity)}
}

func (s *stamps) calls() int { return min(int(s.next.Load()), len(s.entry)) }

// payloadNs sums the measured payload.
func (s *stamps) payloadNs() int64 {
	var sum int64
	for i, n := 0, s.calls(); i < n; i++ {
		sum += s.exit[i] - s.entry[i]
	}
	return sum
}

// gaps returns, per call after a slot's first, the time from the slot's
// previous exit to this entry — the dispatch gap. Slots carry no identity
// through savanna.Executor, so calls are matched to the slot that has been
// free longest; with one slot that is exact, and in a closed loop workers
// re-enter in the order they left, so it is a close match beyond one.
func (s *stamps) gaps() []int64 {
	n := s.calls()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return s.entry[order[a]] < s.entry[order[b]] })
	free := make([]int64, s.slots)
	for j := range free {
		free[j] = -1
	}
	out := make([]int64, 0, n)
	for _, i := range order {
		j := 0
		for k := range free {
			if free[k] < free[j] {
				j = k
			}
		}
		if free[j] >= 0 {
			out = append(out, max(s.entry[i]-free[j], 0))
		}
		free[j] = s.exit[i]
	}
	return out
}

// stampedExecutor is the benchmark's savanna.Executor: it stamps entry and
// exit around work (nil work = the null payload). A non-nil ready holds the
// first call back until it is closed (startWorkers); the wait is before the
// entry stamp, so it counts as overhead, not payload.
type stampedExecutor struct {
	st      *stamps
	work    func(run cheetah.Run) error
	ready   <-chan struct{}
	started atomic.Bool
}

func (e *stampedExecutor) Execute(run cheetah.Run) error {
	if e.ready != nil && !e.started.Load() {
		<-e.ready
		e.started.Store(true)
	}
	k := int(e.st.next.Add(1) - 1)
	stamped := k < len(e.st.entry)
	if stamped {
		e.st.entry[k] = e.st.clk.now()
	}
	var err error
	if e.work != nil {
		err = e.work(run)
	}
	if stamped {
		e.st.exit[k] = e.st.clk.now()
	} else {
		e.st.extra.Add(1)
	}
	return err
}

// spin burns CPU for d. Payloads never sleep: in this sandbox
// time.Sleep(150µs) takes ~1.15 ms, which is how the old campaign number
// went wrong (README.md, "Payload truth").
func spin(d time.Duration) {
	t0 := time.Now()
	for time.Since(t0) < d {
	}
}
