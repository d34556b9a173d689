package bench

import (
	"net"
	"sync"
	"sync/atomic"

	"fairflow/internal/telemetry/eventlog"
)

// seamCounts are the exact counts the traced run reads at the wrapped
// seams of a real campaign. c2w is coordinator→worker, w2c the reverse;
// a "flush" is one Write reaching the socket.
type seamCounts struct {
	c2wBytes, c2wFlushes atomic.Int64
	w2cBytes, w2cFlushes atomic.Int64
	events               atomic.Int64
}

// countedConn counts, and records one span for, every Write on a
// connection. Each direction is counted on its writing side.
type countedConn struct {
	net.Conn
	bytes, flushes *atomic.Int64
	rec            *recorder
	lane           int
}

func (c *countedConn) Write(p []byte) (int, error) {
	t0 := c.rec.now()
	n, err := c.Conn.Write(p)
	c.rec.add("conn.Write", c.lane, t0, c.rec.now())
	c.bytes.Add(int64(n))
	c.flushes.Add(1)
	return n, err
}

// grantedConn closes granted when the first bytes from the coordinator
// arrive on a worker's connection: the lease grant is the first thing a
// coordinator writes.
type grantedConn struct {
	net.Conn
	once    sync.Once
	granted chan struct{}
}

func (c *grantedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.once.Do(func() { close(c.granted) })
	}
	return n, err
}

// countedListener wraps the coordinator's net.Listener seam: accepted
// connections count coordinator→worker traffic.
type countedListener struct {
	net.Listener
	counts *seamCounts
	rec    *recorder
}

func (l *countedListener) Accept() (net.Conn, error) {
	t0 := l.rec.now()
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.rec.add("listener.Accept", laneSeams, t0, l.rec.now())
	return &countedConn{Conn: c, bytes: &l.counts.c2wBytes, flushes: &l.counts.c2wFlushes, rec: l.rec, lane: laneWireC2W}, nil
}

// countEvents wraps the eventlog.Log.Subscribe seam: every event filed
// (ingested worker events included) is counted and marked in the trace.
func countEvents(log *eventlog.Log, counts *seamCounts, rec *recorder) {
	log.Subscribe(func(ev eventlog.Event) {
		counts.events.Add(1)
		t := rec.now()
		rec.add(ev.Type, laneEvents, t, t)
	})
}
