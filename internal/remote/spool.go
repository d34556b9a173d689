package remote

import "sync"

// outcomeSpool is the worker's bounded buffer of terminal outcomes the
// coordinator has not yet acknowledged. In a healthy session it holds at
// most a few in-flight entries (result sent, ack not yet back); when the
// coordinator dies it absorbs everything finished during the outage, and
// the whole backlog replays on the next handshake — finished work is never
// redone just because the coordinator was replaced. The spool keys by run
// id (a re-executed run overwrites its entry) and evicts oldest-first at
// the limit: dropping an outcome is safe — the run merely re-executes under
// the successor — but the eviction is counted, never silent.
type outcomeSpool struct {
	mu      sync.Mutex
	order   []string
	byRun   map[string]Outcome
	dropped int64
}

// spoolLimit bounds the spool; overflow counts on
// remote_worker.spool_dropped_total.
const spoolLimit = 4096

func newOutcomeSpool() *outcomeSpool {
	return &outcomeSpool{byRun: map[string]Outcome{}}
}

// put buffers one outcome, returning how many entries were evicted to make
// room (0 almost always).
func (sp *outcomeSpool) put(out Outcome) int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if _, ok := sp.byRun[out.RunID]; !ok {
		sp.order = append(sp.order, out.RunID)
	}
	sp.byRun[out.RunID] = out
	evicted := 0
	for len(sp.order) > spoolLimit {
		oldest := sp.order[0]
		sp.order = sp.order[1:]
		delete(sp.byRun, oldest)
		sp.dropped++
		evicted++
	}
	return evicted
}

// ack clears one run's entry, reporting whether it was present.
func (sp *outcomeSpool) ack(run string) bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if _, ok := sp.byRun[run]; !ok {
		return false
	}
	delete(sp.byRun, run)
	for i, id := range sp.order {
		if id == run {
			sp.order = append(sp.order[:i], sp.order[i+1:]...)
			break
		}
	}
	return true
}

// pending snapshots the unacknowledged outcomes, oldest first.
func (sp *outcomeSpool) pending() []Outcome {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	out := make([]Outcome, 0, len(sp.order))
	for _, id := range sp.order {
		out = append(out, sp.byRun[id])
	}
	return out
}

// depth is the current entry count.
func (sp *outcomeSpool) depth() int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return len(sp.order)
}
