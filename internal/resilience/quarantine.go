package resilience

import (
	"sort"
	"sync"
)

// Quarantine is the circuit breaker that side-lines sweep points which keep
// failing: after Threshold consecutive failed attempts of the same point,
// the point is quarantined and Allow refuses further executions. One
// poisoned parameter combination then costs the campaign exactly Threshold
// attempts instead of soaking up the worker pool's retry budget forever.
//
// Keys are sweep-point identities (the engines derive them from the run's
// parameters). A nil *Quarantine disables the breaker: Allow always grants.
type Quarantine struct {
	threshold int

	mu     sync.Mutex
	consec map[string]int
	out    map[string]bool
}

// NewQuarantine builds a breaker that trips after threshold consecutive
// failures (threshold < 1 returns nil — quarantine off).
func NewQuarantine(threshold int) *Quarantine {
	if threshold < 1 {
		return nil
	}
	return &Quarantine{
		threshold: threshold,
		consec:    map[string]int{},
		out:       map[string]bool{},
	}
}

// Allow reports whether the point may execute.
func (q *Quarantine) Allow(key string) bool {
	if q == nil {
		return true
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return !q.out[key]
}

// NoteFailure records one failed attempt and reports whether this failure
// tripped the breaker (true exactly once per quarantined point).
func (q *Quarantine) NoteFailure(key string) bool {
	if q == nil {
		return false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.out[key] {
		return false
	}
	q.consec[key]++
	if q.consec[key] >= q.threshold {
		q.out[key] = true
		return true
	}
	return false
}

// NoteSuccess resets the point's consecutive-failure count.
func (q *Quarantine) NoteSuccess(key string) {
	if q == nil {
		return
	}
	q.mu.Lock()
	delete(q.consec, key)
	q.mu.Unlock()
}

// List returns the quarantined point keys, sorted.
func (q *Quarantine) List() []string {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	keys := make([]string, 0, len(q.out))
	for k := range q.out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Restore pre-quarantines the given points — used by resume to carry a
// previous process's quarantine decisions across the crash.
func (q *Quarantine) Restore(keys []string) {
	if q == nil {
		return
	}
	q.mu.Lock()
	for _, k := range keys {
		q.out[k] = true
	}
	q.mu.Unlock()
}
