package resilience

import (
	"sync"
	"time"
)

// Lease is one worker's admission to a campaign: the coordinator grants it,
// heartbeats renew it, and missing the TTL reclaims it — at which point
// every run dispatched under the lease re-enters the queue. Leases are the
// distributed half of the exactly-once contract: the attempt journal
// records grants, expiries and per-run dispatch/lost transitions, so a
// crash of either side replays to an unambiguous position.
type Lease struct {
	// ID is unique within the table's lifetime (monotonic).
	ID int64
	// Worker names the leaseholder.
	Worker string
	// Granted is when the lease was issued.
	Granted time.Time
	// Expires is the current deadline; Renew pushes it forward.
	Expires time.Time
}

// LeaseTable tracks the live leases of one campaign and journals their
// transitions. Safe for concurrent use.
type LeaseTable struct {
	ttl  time.Duration
	sink func(AttemptRecord)
	now  func() time.Time

	mu     sync.Mutex
	next   int64
	leases map[string]*Lease
}

// NewLeaseTable builds a table with the given TTL. sink receives the record
// of every grant, expiry and release, on the caller's goroutine before the
// call returns — the coordinator hands it the group its recorder writes, so
// lease records keep their place among the attempts decided around them. A
// nil sink leaves transitions unrecorded; now may be nil (wall clock).
func NewLeaseTable(ttl time.Duration, sink func(AttemptRecord), now func() time.Time) *LeaseTable {
	if now == nil {
		now = time.Now
	}
	if sink == nil {
		sink = func(AttemptRecord) {}
	}
	return &LeaseTable{ttl: ttl, sink: sink, now: now, leases: map[string]*Lease{}}
}

// Grant issues (or re-issues) the worker's lease and journals it. A
// re-grant to a returning worker replaces the old lease under a fresh ID.
func (t *LeaseTable) Grant(worker string) Lease {
	t.mu.Lock()
	t.next++
	now := t.now()
	l := &Lease{ID: t.next, Worker: worker, Granted: now, Expires: now.Add(t.ttl)}
	t.leases[worker] = l
	lease := *l
	t.mu.Unlock()
	t.sink(AttemptRecord{
		Run: LeaseRunID(worker), Event: LeaseGranted, Worker: worker,
		Attempt: int(lease.ID), Time: now,
	})
	return lease
}

// Renew extends the worker's lease from now (a heartbeat). It reports
// whether the worker still holds one — a heartbeat from a reclaimed lease
// returns false and the worker must rejoin.
func (t *LeaseTable) Renew(worker string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.leases[worker]
	if !ok {
		return false
	}
	l.Expires = t.now().Add(t.ttl)
	return true
}

// Expired returns the leases whose deadline has passed, without removing
// them; the caller reclaims each via Expire after requeueing its runs.
func (t *LeaseTable) Expired() []Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	var out []Lease
	for _, l := range t.leases {
		if now.After(l.Expires) {
			out = append(out, *l)
		}
	}
	return out
}

// Expire reclaims the worker's lease (missed heartbeats or a dropped
// connection) and journals the expiry. False when no lease was held.
func (t *LeaseTable) Expire(worker string, reason string) bool {
	t.mu.Lock()
	_, ok := t.leases[worker]
	delete(t.leases, worker)
	t.mu.Unlock()
	if !ok {
		return false
	}
	t.sink(AttemptRecord{
		Run: LeaseRunID(worker), Event: LeaseExpired, Worker: worker,
		Time: t.now(), Err: reason,
	})
	return true
}

// Release ends the worker's lease cleanly (drain handshake) and journals
// the departure.
func (t *LeaseTable) Release(worker string) {
	t.mu.Lock()
	_, ok := t.leases[worker]
	delete(t.leases, worker)
	t.mu.Unlock()
	if !ok {
		return
	}
	t.sink(AttemptRecord{
		Run: LeaseRunID(worker), Event: LeaseReleased, Worker: worker, Time: t.now(),
	})
}
