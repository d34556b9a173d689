// Package remote is the third Savanna engine: a coordinator/worker
// execution plane that shards a campaign across OS processes connected by
// the internal/stream TCP transport. The coordinator owns the campaign —
// the run queue, the resilience controller, the attempt journal, the memo
// cache — and dispatches batched assignments to workers holding leases;
// workers execute runs and report outcomes, moving artifacts by digest
// through a (typically shared) CAS store rather than shipping bytes over
// the control connection. Lease expiry re-dispatches a dead worker's runs;
// the journal keeps exactly-once accounting across worker and coordinator
// crashes alike.
//
// The wire protocol is one FBS-typed record schema (remote.v3) carrying a
// punctuation-style operation verb, the worker name, the lease id, and a
// binary body whose layout the verb selects (wire.go) — the same
// typed-records + control-punctuation design as the streaming substrate,
// reused for the execution plane. See DESIGN.md §4g for the record schemas,
// the body layouts and the lease state machine.
package remote

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fairflow/internal/cheetah"
	"fairflow/internal/stream"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// Protocol operation verbs (the control punctuation of the execution
// plane). Direction is noted per verb.
const (
	// OpHello opens a worker session (worker → coordinator): body Hello.
	OpHello = "hello"
	// OpLeaseGrant admits the worker (coordinator → worker): body LeaseGrant.
	OpLeaseGrant = "lease-grant"
	// OpAssign hands the worker a batch of runs (coordinator → worker):
	// body Assignment.
	OpAssign = "assign"
	// OpResult reports one run's terminal outcome (worker → coordinator):
	// body Outcome.
	OpResult = "result"
	// OpHeartbeat renews the worker's lease (worker → coordinator): body
	// Heartbeat.
	OpHeartbeat = "heartbeat"
	// OpSteal asks the worker to relinquish queued-but-unstarted runs
	// (coordinator → worker): body Steal.
	OpSteal = "steal"
	// OpStolen returns the run ids actually relinquished (worker →
	// coordinator): body Stolen.
	OpStolen = "stolen"
	// OpDrain tells the worker the campaign is over (coordinator → worker);
	// the worker finishes nothing further and closes cleanly.
	OpDrain = "drain"
	// OpHeartbeatAck echoes a heartbeat's send timestamp back (coordinator
	// → worker): body HeartbeatAck. The worker measures heartbeat RTT from
	// it — the clock-skew estimator's input.
	OpHeartbeatAck = "heartbeat-ack"
	// OpTelemetry ships a bounded batch of worker telemetry — finished
	// spans, metric deltas, journal events — to the coordinator (worker →
	// coordinator): body TelemetryBatch. Flushes piggyback on the heartbeat
	// cadence; a final drain flush follows OpDrain, before the worker
	// closes.
	OpTelemetry = "telemetry"
	// OpResultAck acknowledges OpResults (coordinator → worker): body
	// ResultAck. The ack clears the worker's outcome spool entry; until it
	// arrives the worker keeps the outcome buffered and replays it on
	// re-handshake, so a coordinator crash between a result send and its
	// journal write never loses finished work. Acks are posted after the
	// outcome is folded into the journal — never for one the journal
	// refused — and for *every* other result, including duplicates and runs
	// a resumed coordinator no longer tracks, so spools always drain.
	OpResultAck = "result-ack"
)

// msgSchema is the one typed record layout of the execution plane. The
// epoch field fences coordinator handovers: every message carries its
// sender's coordinator epoch (workers echo the epoch of the session that
// admitted them), and receivers drop anything stamped below the highest
// epoch they have seen — a partitioned predecessor's assignments and acks
// are rejected, not executed. Epoch 0 (a journal-less coordinator) opts out
// of fencing entirely, keeping pre-failover deployments byte-compatible in
// behaviour.
//
// The schema name is the protocol version. Bodies are positional (wire.go),
// so any change to a body's layout — a field added, dropped, reordered or
// re-typed — bumps the name: a peer built from another version is then
// refused at its first record by the schema check in recv, instead of
// misreading bytes. Both sides of a deployment upgrade together.
var msgSchema = &stream.Schema{
	Name: "remote.v3",
	Fields: []stream.Field{
		{Name: "op", Type: stream.TString},
		{Name: "worker", Type: stream.TString},
		{Name: "lease", Type: stream.TInt64},
		{Name: "epoch", Type: stream.TInt64},
		{Name: "body", Type: stream.TBytes},
	},
}

// Hello is a worker's session-opening body.
type Hello struct {
	// Slots is the worker's run concurrency (≥1).
	Slots int `json:"slots"`
}

// LeaseGrant is the coordinator's admission body.
type LeaseGrant struct {
	Campaign string `json:"campaign"`
	// TTLMillis is the lease duration; the worker must heartbeat well
	// inside it (TTL/3 is the convention).
	TTLMillis int64 `json:"ttl_ms"`
	// Component and Inputs seed the worker's memo recipe so its action
	// cache keys agree with the coordinator's: same component digest, same
	// campaign-level input digests — artifacts resolve by digest on any
	// machine sharing the store.
	Component string            `json:"component,omitempty"`
	Inputs    map[string]string `json:"inputs,omitempty"`
	// Epoch is the granting coordinator's fenced journal epoch. A worker
	// that has already served a higher epoch rejects the grant — the dialed
	// address reached a deposed incarnation.
	Epoch int64 `json:"epoch,omitempty"`
}

// Assignment is one batch of runs.
type Assignment struct {
	Runs []cheetah.Run `json:"runs"`
	// Trace is not filled and not on the wire: the coordinator parents a
	// worker's run span by its run id (DESIGN.md §4h). It stays declared
	// only because bench/layers.go still builds it to size its JSON body
	// measurement; ROADMAP item 1b-ii removes it.
	Trace map[string]string `json:"trace,omitempty"`
}

// Outcome is one run's terminal report from a worker.
type Outcome struct {
	RunID   string  `json:"run"`
	OK      bool    `json:"ok"`
	Cached  bool    `json:"cached,omitempty"`
	Seconds float64 `json:"seconds"`
	Err     string  `json:"err,omitempty"`
	// Class carries the worker-side failure classification (transient /
	// permanent / deadline) so the coordinator's retry policy sees the same
	// error taxonomy it would in-process.
	Class string `json:"class,omitempty"`
	// Outputs are the run's artifacts by digest (name → digest), already
	// pushed into the worker's CAS — the coordinator materializes from its
	// own store view; bytes never ride the control connection.
	Outputs map[string]string `json:"outputs,omitempty"`
	// CPUUserSeconds/CPUSystemSeconds/MaxRSSBytes carry the run's kernel
	// resource accounting (summed across worker-side attempts, peak RSS in
	// bytes) so the coordinator sees fleet-wide cost, not just wall time.
	CPUUserSeconds   float64 `json:"cpu_user_s,omitempty"`
	CPUSystemSeconds float64 `json:"cpu_sys_s,omitempty"`
	MaxRSSBytes      int64   `json:"max_rss,omitempty"`
}

// Heartbeat renews a lease and reports queue occupancy (the coordinator's
// steal heuristic input).
type Heartbeat struct {
	Queued   int `json:"queued"`
	InFlight int `json:"in_flight"`
	// SentUnixNano stamps the worker's clock at send time; with RTTNanos it
	// feeds the coordinator's per-worker clock-skew estimate.
	SentUnixNano int64 `json:"sent,omitempty"`
	// RTTNanos is the worker's last measured heartbeat round trip (0 until
	// the first OpHeartbeatAck arrives).
	RTTNanos int64 `json:"rtt,omitempty"`
}

// HeartbeatAck returns a heartbeat's send timestamp to the worker, which
// computes RTT as its current clock minus the echo (both ends of that
// subtraction are the worker's own clock, so skew cancels).
type HeartbeatAck struct {
	EchoUnixNano int64 `json:"echo"`
}

// TelemetryBatch is one bounded shipment of a worker's telemetry. Spans
// and events are capped per batch (maxTelemetryBatch); whatever the
// worker's local buffers dropped before shipping is reported in the
// Dropped counts so the loss is loud on the coordinator
// (remote.telemetry_dropped_total), never silent.
type TelemetryBatch struct {
	Spans  []telemetry.SpanData `json:"spans,omitempty"`
	Events []eventlog.Event     `json:"events,omitempty"`
	// Metrics is the delta since the previous batch (counters and
	// histograms as increments, gauges as levels); the coordinator folds it
	// into its registry under a worker label.
	Metrics       *telemetry.MetricsSnapshot `json:"metrics,omitempty"`
	DroppedSpans  int64                      `json:"dropped_spans,omitempty"`
	DroppedEvents int64                      `json:"dropped_events,omitempty"`
	// SentUnixNano / RTTNanos mirror Heartbeat's skew-estimation fields, so
	// span timestamps in this batch can be skew-adjusted with an estimate
	// at least as fresh as the batch itself.
	SentUnixNano int64 `json:"sent,omitempty"`
	RTTNanos     int64 `json:"rtt,omitempty"`
}

// Steal asks a worker to give back up to N queued runs.
type Steal struct {
	N int `json:"n"`
}

// Stolen lists the run ids a worker actually relinquished (never ones it
// already started — stealing must not double-execute).
type Stolen struct {
	RunIDs []string `json:"runs"`
}

// ResultAck acknowledges outcome reports: the run ids whose outcomes the
// coordinator has journaled — one as posted, several once the writer has
// merged a backlog of acks into one message. A worker clears every id.
type ResultAck struct {
	RunIDs []string `json:"runs,omitempty"`
}

// sentStamper is a body that carries its send time (the skew estimator's
// input). The writer stamps it just before encoding, so time spent queued is
// not mistaken for time in flight.
type sentStamper interface{ stampSent(unixNano int64) }

func (h *Heartbeat) stampSent(t int64)      { h.SentUnixNano = t }
func (b *TelemetryBatch) stampSent(t int64) { b.SentUnixNano = t }

// msg is one decoded protocol record. Body is the message's own: recv reads
// it into an exact-size allocation, so a message stays valid across later
// recvs. Op and Worker are shared strings (see recv).
type msg struct {
	Op     string
	Worker string
	Lease  int64
	Epoch  int64
	Body   []byte
}

// decodeBody parses a message body into the verb's payload type. An empty
// body (drain's) is the zero value.
func decodeBody[T any, P interface {
	*T
	readWire(*rbuf)
}](m msg) (T, error) {
	var v T
	if len(m.Body) == 0 {
		return v, nil
	}
	r := rbuf{b: m.Body, body: m.Body}
	readBody(P(&v), &r)
	if err := r.finish(); err != nil {
		var zero T
		return zero, fmt.Errorf("remote: bad %s body: %w", m.Op, err)
	}
	return v, nil
}

// readBody calls dst's readWire through its concrete type. A call through
// decodeBody's type parameter is an indirect call, which the compiler
// assumes keeps its arguments, moving v and r to the heap: two allocations
// a message that this switch saves. A body type missing here fails every
// test that decodes it.
func readBody(dst any, r *rbuf) {
	switch b := dst.(type) {
	case *Hello:
		b.readWire(r)
	case *LeaseGrant:
		b.readWire(r)
	case *Assignment:
		b.readWire(r)
	case *Outcome:
		b.readWire(r)
	case *Heartbeat:
		b.readWire(r)
	case *HeartbeatAck:
		b.readWire(r)
	case *Steal:
		b.readWire(r)
	case *Stolen:
		b.readWire(r)
	case *ResultAck:
		b.readWire(r)
	case *TelemetryBatch:
		b.readWire(r)
	default:
		panic("remote: readBody has no case for this body type")
	}
}

// schemaMismatch is recv's error for a peer whose stream declares a schema
// other than msgSchema: another protocol version, or not this protocol.
type schemaMismatch struct{ offered string }

func (e *schemaMismatch) Error() string {
	return fmt.Sprintf("remote: peer speaks %q, this build speaks %q", e.offered, msgSchema.Name)
}

// conn is one protocol connection: an FBS decoder for the reading side and,
// for the writing side, a FIFO queue drained by one long-lived writer
// goroutine, the only code that touches the encoder. post appends and
// returns; the writer takes everything queued, merges it (see merge),
// encodes it and flushes once under one write deadline. It never waits for
// more: a lone message on an idle connection leaves at once, and batching
// appears only when a backlog exists.
//
// The queue needs no bound of its own because the protocol bounds it: a
// coordinator queues at most BatchSize assigned runs per worker, one ack per
// result received and one heartbeat-ack per heartbeat received; a worker at
// most one result per run assigned, plus one heartbeat and one telemetry
// batch per heartbeat tick. A peer that stops reading fails the flush in
// progress at its write deadline, which ends the connection.
type conn struct {
	c net.Conn

	// Reader-owned (recv). schemaOK is set once the stream's schema has
	// been checked against msgSchema; worker is the last worker name read,
	// which the next message's name is interned against.
	dec      *stream.Decoder
	schemaOK bool
	worker   string

	// epoch stamps every message at post time. The coordinator sets it to
	// its fenced journal epoch at accept; the worker sets it from the lease
	// grant, so its results carry the epoch of the session that admitted
	// them.
	epoch atomic.Int64
	// timeout bounds each flush and each idle read; zero disables deadlines.
	timeout time.Duration
	// onErr, when set (before the first post), hears the write error that
	// ends the connection: once, from the writer goroutine, before the close.
	onErr func(error)
	// The writer's instruments (nil-safe): messages over flushes is the
	// batching achieved, the histogram the time one flush took.
	messages, flushes *telemetry.Counter
	flushSeconds      *telemetry.Histogram

	mu       sync.Mutex
	wake     *sync.Cond
	queue    []outMsg
	shutting bool // send what is queued, then stop
	closed   bool
	done     chan struct{} // closed when the writer has exited

	// Writer-owned. scratch is the body buffer every message is encoded
	// into; the FBS encoder copies it out before the next one reuses it, so
	// a warm writer encodes envelope and body without allocating.
	enc     *stream.Encoder
	seq     int64
	scratch []byte
}

// outMsg is one queued message. The body belongs to the writer from post
// on: it may be merged into, and is encoded off the poster's locks.
type outMsg struct {
	op, worker   string
	lease, epoch int64
	body         wireBody
}

// newConn wraps c and starts its writer, whose instruments live in reg (nil
// = none) under subsystem ("remote" or "remote_worker").
func newConn(c net.Conn, timeout time.Duration, reg *telemetry.Registry, subsystem string) (*conn, error) {
	enc, err := stream.NewEncoder(c, msgSchema)
	if err != nil {
		return nil, err
	}
	cn := &conn{c: c, enc: enc, dec: stream.NewDecoder(c), timeout: timeout, done: make(chan struct{}),
		messages:     reg.Counter(subsystem + ".wire_messages_total"),
		flushes:      reg.Counter(subsystem + ".wire_flushes_total"),
		flushSeconds: reg.Histogram(subsystem+".wire_flush_seconds", nil)}
	cn.wake = sync.NewCond(&cn.mu)
	go cn.writeLoop()
	return cn, nil
}

// post queues one message for the writer and returns at once; after close
// or shut it drops the message. nil sends an empty body.
func (c *conn) post(op, worker string, lease int64, body wireBody) {
	c.mu.Lock()
	if !c.closed && !c.shutting {
		c.queue = append(c.queue, outMsg{op, worker, lease, c.epoch.Load(), body})
		c.wake.Signal()
	}
	c.mu.Unlock()
}

// writeLoop is the connection's writer: take the queue, write it, repeat
// until close, a write error, or — after shut — an empty queue.
func (c *conn) writeLoop() {
	defer close(c.done)
	var batch []outMsg
	for {
		c.mu.Lock()
		for len(c.queue) == 0 && !c.closed && !c.shutting {
			c.wake.Wait()
		}
		if c.closed || len(c.queue) == 0 {
			c.mu.Unlock()
			return
		}
		batch, c.queue = c.queue, batch[:0]
		c.mu.Unlock()
		if err := c.write(merge(batch)); err != nil {
			// The hook first, so that its reason is on record before the read
			// loop's "use of closed connection".
			if c.onErr != nil {
				c.onErr(err)
			}
			c.close()
			return
		}
		clear(batch)
	}
}

// write encodes the batch and flushes it once.
func (c *conn) write(batch []outMsg) error {
	start := time.Now()
	if c.timeout > 0 {
		c.c.SetWriteDeadline(start.Add(c.timeout))
	}
	for _, m := range batch {
		if s, ok := m.body.(sentStamper); ok {
			s.stampSent(time.Now().UnixNano())
		}
		c.scratch = c.scratch[:0]
		if m.body != nil {
			c.scratch = m.body.appendWire(c.scratch)
		}
		c.seq++
		c.enc.Begin(c.seq, start)
		c.enc.PutString(m.op)
		c.enc.PutString(m.worker)
		c.enc.PutInt64(m.lease)
		c.enc.PutInt64(m.epoch)
		c.enc.PutBytes(c.scratch)
		if err := c.enc.End(); err != nil {
			return err
		}
	}
	err := c.enc.Flush()
	c.messages.Add(int64(len(batch)))
	c.flushes.Inc()
	c.flushSeconds.Observe(time.Since(start).Seconds())
	return err
}

// merge folds a batch's assigns into its first assign (runs in order) and
// its result-acks into its first ack (run ids in order),
// while worker, lease and epoch agree. It is batch-wide, not adjacency-only
// (a busy queue alternates assign, ack, assign, ack); moving a later assign
// or ack ahead of a steal or heartbeat-ack between them is safe, since a
// stolen reply names the ids actually relinquished and an ack only clears a
// spool entry. No other verb is touched; a lone message goes out as posted.
func merge(batch []outMsg) []outMsg {
	out := batch[:0]
	assign, ack := -1, -1 // where in out later assigns / acks fold into
	same := func(i int, m outMsg) bool {
		t := out[i]
		return t.worker == m.worker && t.lease == m.lease && t.epoch == m.epoch
	}
	for _, m := range batch {
		switch b := m.body.(type) {
		case *Assignment:
			if assign >= 0 && same(assign, m) {
				t := out[assign].body.(*Assignment)
				t.Runs = append(t.Runs, b.Runs...)
				continue
			}
			assign = len(out)
		case *ResultAck:
			if ack >= 0 && same(ack, m) {
				t := out[ack].body.(*ResultAck)
				t.RunIDs = append(t.RunIDs, b.RunIDs...)
				continue
			}
			ack = len(out)
		}
		out = append(out, m)
	}
	return out
}

// shut is the clean end of a session: what is queued goes out (each flush
// under its write deadline), then the connection closes.
func (c *conn) shut() {
	c.mu.Lock()
	c.shutting = true
	c.wake.Signal()
	c.mu.Unlock()
	<-c.done
	c.close()
}

// close is the abrupt end, safe to repeat: queued messages are dropped, a
// flush in progress fails, and the writer exits.
func (c *conn) close() {
	c.mu.Lock()
	c.closed, c.queue = true, nil
	c.wake.Signal()
	c.mu.Unlock()
	c.c.Close()
}

// recv decodes the next message, waiting at most maxIdle (0 = the conn's
// default timeout; negative = no deadline). The stream's schema is checked
// once, before its first record; each record is then read field by field
// with no []any. A known verb comes back as its Op constant and a worker
// name equal to the previous message's as that same string, so the envelope
// allocates only the body.
func (c *conn) recv(maxIdle time.Duration) (msg, error) {
	if maxIdle == 0 {
		maxIdle = c.timeout
	}
	if maxIdle > 0 {
		c.c.SetReadDeadline(time.Now().Add(maxIdle))
	} else {
		c.c.SetReadDeadline(time.Time{})
	}
	d := c.dec
	if !c.schemaOK {
		s, err := d.Schema()
		if err != nil {
			return msg{}, err
		}
		if !s.Equal(*msgSchema) {
			return msg{}, &schemaMismatch{offered: s.Name}
		}
		c.schemaOK = true
	}
	if _, _, err := d.Begin(); err != nil {
		return msg{}, err
	}
	m := msg{Op: internOp(d.ReadView())}
	if w := d.ReadView(); string(w) != c.worker {
		c.worker = string(w)
	}
	m.Worker, m.Lease, m.Epoch, m.Body = c.worker, d.ReadInt64(), d.ReadInt64(), d.ReadBytes()
	if err := d.End(); err != nil {
		return msg{}, err
	}
	return m, nil
}

// ops are the protocol's verbs: recv hands out these strings rather than a
// copy per message.
var ops = [...]string{OpHello, OpLeaseGrant, OpAssign, OpResult, OpHeartbeat, OpSteal,
	OpStolen, OpDrain, OpHeartbeatAck, OpTelemetry, OpResultAck}

func internOp(b []byte) string {
	for _, op := range ops {
		if string(b) == op {
			return op
		}
	}
	return string(b)
}
