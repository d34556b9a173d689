package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"fairflow/internal/appendlog"
	"fairflow/internal/cheetah"
	"fairflow/internal/resilience"
	"fairflow/internal/stream"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// bufConn is a net.Conn over memory: reads come from r, writes go to w,
// deadlines are accepted and ignored.
type bufConn struct {
	r  io.Reader
	mu sync.Mutex
	w  bytes.Buffer
}

func (b *bufConn) Read(p []byte) (int, error) {
	if b.r == nil {
		return 0, io.EOF
	}
	return b.r.Read(p)
}

func (b *bufConn) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.w.Write(p)
}

func (b *bufConn) written() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.w.Bytes()...)
}

func (*bufConn) Close() error                     { return nil }
func (*bufConn) LocalAddr() net.Addr              { return nil }
func (*bufConn) RemoteAddr() net.Addr             { return nil }
func (*bufConn) SetDeadline(time.Time) error      { return nil }
func (*bufConn) SetReadDeadline(time.Time) error  { return nil }
func (*bufConn) SetWriteDeadline(time.Time) error { return nil }

// wireBytes returns what the writer puts on the wire for one batch taken
// from the queue in this order. It drives write(merge(batch)) directly —
// the conn's own writer goroutine stays parked, nothing is posted — so the
// batch boundaries are the test's, not the scheduler's.
func wireBytes(t testing.TB, batch ...outMsg) []byte {
	t.Helper()
	bc := &bufConn{}
	c, err := newConn(bc, 0, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if err := c.write(merge(batch)); err != nil {
		t.Fatal(err)
	}
	return bc.written()
}

// readAll decodes every message in data, stopping at the first error.
func readAll(data []byte) ([]msg, error) {
	c := &conn{c: &bufConn{}, dec: stream.NewDecoder(bytes.NewReader(data))}
	var out []msg
	for {
		m, err := c.recv(-1)
		if err != nil {
			return out, err
		}
		out = append(out, m)
	}
}

// wireMsg is one message as a peer sees it: the envelope and the body decoded
// as its verb's type (nil for drain).
type wireMsg struct {
	Op, Worker   string
	Lease, Epoch int64
	Body         wireBody
}

// decoded decodes every message's body as its own verb.
func decoded(t testing.TB, ms []msg) []wireMsg {
	t.Helper()
	out := make([]wireMsg, len(ms))
	for i, m := range ms {
		body, known, err := decodeVerb(m)
		if !known || err != nil {
			t.Fatalf("message %d (%s): known=%v err=%v", i, m.Op, known, err)
		}
		out[i] = wireMsg{m.Op, m.Worker, m.Lease, m.Epoch, body}
	}
	return out
}

// render shows messages as "op worker/lease@epoch body" lines.
func render(ms []wireMsg) string {
	var sb strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&sb, "\n  %s %s/%d@%d %+v", m.Op, m.Worker, m.Lease, m.Epoch, m.Body)
	}
	return sb.String()
}

func assignMsg(worker string, lease int64, trace map[string]string, ids ...string) outMsg {
	a := &Assignment{Trace: trace}
	for _, id := range ids {
		a.Runs = append(a.Runs, cheetah.Run{ID: id})
	}
	return outMsg{op: OpAssign, worker: worker, lease: lease, body: a}
}

func ackMsg(worker string, lease int64, ids ...string) outMsg {
	return outMsg{op: OpResultAck, worker: worker, lease: lease, body: &ResultAck{RunIDs: ids}}
}

// TestWriterMergeTable pins the merge rules on what a peer decodes from the
// bytes that reach the wire: batch-wide folding of assigns and acks, never
// across a lease, a worker or an epoch, never touching another verb, and a
// lone message unrewritten.
func TestWriterMergeTable(t *testing.T) {
	// What the peer should see: the message the same constructor builds,
	// with its epoch.
	want := func(m outMsg, epoch int64) wireMsg { return wireMsg{m.op, m.worker, m.lease, epoch, m.body} }
	steal := outMsg{op: OpSteal, worker: "w", lease: 1, body: &Steal{N: 2}}
	hbAck := outMsg{op: OpHeartbeatAck, worker: "w", lease: 1, body: &HeartbeatAck{EchoUnixNano: 7}}
	drain := outMsg{op: OpDrain, worker: "w", lease: 1}
	atEpoch := func(m outMsg, epoch int64) outMsg { m.epoch = epoch; return m }

	cases := []struct {
		name  string
		batch []outMsg
		want  []wireMsg
	}{
		{"steady state alternation folds batch-wide",
			[]outMsg{assignMsg("w", 1, nil, "a"), ackMsg("w", 1, "x"), assignMsg("w", 1, nil, "b"),
				ackMsg("w", 1, "y"), steal, assignMsg("w", 1, nil, "c")},
			[]wireMsg{want(assignMsg("w", 1, nil, "a", "b", "c"), 0), want(ackMsg("w", 1, "x", "y"), 0), want(steal, 0)}},
		{"lone assign unrewritten",
			[]outMsg{assignMsg("w", 1, map[string]string{"a": "tp-a"}, "a")},
			[]wireMsg{want(assignMsg("w", 1, map[string]string{"a": "tp-a"}, "a"), 0)}},
		{"a lone ack is a one-element list",
			[]outMsg{ackMsg("w", 1, "x")},
			[]wireMsg{want(ackMsg("w", 1, "x"), 0)}},
		{"three acks, one list",
			[]outMsg{ackMsg("w", 1, "x"), ackMsg("w", 1, "y"), ackMsg("w", 1, "z")},
			[]wireMsg{want(ackMsg("w", 1, "x", "y", "z"), 0)}},
		{"trace maps union, absent ones included",
			[]outMsg{assignMsg("w", 1, nil, "a"), assignMsg("w", 1, map[string]string{"b": "tp-b"}, "b"),
				assignMsg("w", 1, map[string]string{"c": "tp-c"}, "c"), assignMsg("w", 1, nil, "d")},
			[]wireMsg{want(assignMsg("w", 1, map[string]string{"b": "tp-b", "c": "tp-c"}, "a", "b", "c", "d"), 0)}},
		{"a different lease never merges",
			[]outMsg{assignMsg("w", 1, nil, "a"), assignMsg("w", 2, nil, "b"), ackMsg("w", 1, "x"), ackMsg("w", 2, "y")},
			[]wireMsg{want(assignMsg("w", 1, nil, "a"), 0), want(assignMsg("w", 2, nil, "b"), 0),
				want(ackMsg("w", 1, "x"), 0), want(ackMsg("w", 2, "y"), 0)}},
		{"a different worker never merges",
			[]outMsg{assignMsg("w", 1, nil, "a"), assignMsg("v", 1, nil, "b"), ackMsg("w", 1, "x"), ackMsg("v", 1, "y")},
			[]wireMsg{want(assignMsg("w", 1, nil, "a"), 0), want(assignMsg("v", 1, nil, "b"), 0),
				want(ackMsg("w", 1, "x"), 0), want(ackMsg("v", 1, "y"), 0)}},
		{"a different epoch never merges",
			[]outMsg{atEpoch(ackMsg("w", 1, "x"), 3), atEpoch(ackMsg("w", 1, "y"), 5), atEpoch(ackMsg("w", 1, "z"), 5)},
			[]wireMsg{want(ackMsg("w", 1, "x"), 3), want(ackMsg("w", 1, "y", "z"), 5)}},
		{"other verbs keep their place and their bodies",
			[]outMsg{hbAck, steal, hbAck, drain},
			[]wireMsg{want(hbAck, 0), want(steal, 0), want(hbAck, 0), want(drain, 0)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ms, err := readAll(wireBytes(t, tc.batch...))
			if err != io.EOF {
				t.Fatalf("decoding what the writer wrote: %v", err)
			}
			if got := decoded(t, ms); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("wire:%s\nwant:%s", render(got), render(tc.want))
			}
		})
	}
}

// TestWriterPostOrder pins the FIFO guarantee: messages posted from several
// goroutines reach the peer in the order they were posted, with none lost
// and none repeated, however the writer happened to batch them.
func TestWriterPostOrder(t *testing.T) {
	const posters, each = 8, 500
	a, b := net.Pipe()
	tx, err := newConn(a, 5*time.Second, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer tx.close()
	rx := &conn{c: b, dec: stream.NewDecoder(b)}
	defer b.Close()

	var mu sync.Mutex // makes "post order" a total order the test can name
	var next int
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				mu.Lock()
				next++
				tx.post(OpSteal, "w", 1, &Steal{N: next})
				mu.Unlock()
			}
		}()
	}
	for want := 1; want <= posters*each; want++ {
		m, err := rx.recv(5 * time.Second)
		if err != nil {
			t.Fatalf("message %d: %v", want, err)
		}
		st, err := decodeBody[Steal](m)
		if err != nil || st.N != want {
			t.Fatalf("message %d carries n=%d (err %v)", want, st.N, err)
		}
	}
	wg.Wait()
}

// failAfterConn fails every Write after the first `writes`.
type failAfterConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *failAfterConn) Write(p []byte) (int, error) {
	if c.writes.Add(-1) < 0 {
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

// TestWriterErrorEndsWorkerOnce injects a connection whose writes start
// failing mid-campaign through Worker.Dial. The worker's writer closes the
// connection, the coordinator declares the worker dead exactly once (its
// read loop and its own writer may both notice), the runs it held
// re-dispatch to the healthy worker, and the broken worker's later posts
// are dropped rather than blocking its executors.
func TestWriterErrorEndsWorkerOnce(t *testing.T) {
	ln := listen(t)
	addr := ln.Addr().String()
	events := eventlog.NewLog()
	reg := telemetry.NewRegistry()
	e := &Engine{Listener: ln, BatchSize: 8, LeaseTTL: 5 * time.Second, Events: events, Metrics: reg}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	campaign := make(chan resilience.CompletenessReport, 1)
	go func() {
		_, report, _ := e.RunCampaign(ctx, "flaky", testRuns(400))
		campaign <- report
	}()

	nop := execFn(func(context.Context, cheetah.Run) error { return nil })
	flaky := &Worker{Name: "flaky", Slots: 1, Heartbeat: time.Hour, Executor: nop,
		Dial: func() (net.Conn, error) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			fc := &failAfterConn{Conn: nc}
			fc.writes.Store(2) // the hello and one flush of results
			return fc, nil
		}}
	flakyDone := make(chan error, 1)
	go func() { flakyDone <- flaky.Run(ctx) }()
	// The healthy worker joins once the flaky one holds a full batch, so
	// there is something to re-dispatch.
	waitFor(t, 5*time.Second, func() bool { return reg.Counter("remote.runs_dispatched_total").Value() >= 8 })
	healthy := &Worker{Name: "healthy", Addr: addr, Slots: 1, Heartbeat: 20 * time.Millisecond, Executor: nop}
	healthyDone := make(chan error, 1)
	go func() { healthyDone <- healthy.Run(ctx) }()

	select {
	case report := <-campaign:
		if !report.Complete() || report.Succeeded != 400 {
			t.Fatalf("report = %+v", report)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("campaign did not finish")
	}
	select {
	case err := <-flakyDone:
		if err == nil {
			t.Error("the flaky worker's session ended cleanly")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the flaky worker is stuck behind its dead connection")
	}
	if err := <-healthyDone; err != nil {
		t.Errorf("healthy worker: %v", err)
	}
	dead := 0
	for _, ev := range events.Snapshot() {
		if ev.Type == eventlog.WorkerDead {
			dead++
			if ev.Attr("worker") != "flaky" {
				t.Errorf("worker.dead for %q", ev.Attr("worker"))
			}
		}
	}
	if dead != 1 {
		t.Errorf("%d worker.dead events, want exactly 1", dead)
	}
	if got := reg.Counter("remote.workers_dead_total").Value(); got != 1 {
		t.Errorf("workers_dead_total = %d, want 1", got)
	}
	if flaky.SpoolDepth() == 0 {
		t.Error("the flaky worker's unsent outcomes are not in its spool")
	}
}

// smallSendBuffer shrinks the kernel send buffer of accepted connections, so
// that a peer that stops reading blocks the coordinator's writer after
// kilobytes rather than megabytes.
type smallSendBuffer struct{ net.Listener }

func (l smallSendBuffer) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		c.(*net.TCPConn).SetWriteBuffer(4 << 10)
	}
	return c, err
}

// TestWriterStalledPeer pins what happens when a worker stops reading: its
// writer blocks in a flush, nothing else does — the second worker's results
// are handled and topped up at full speed meanwhile — and the write
// deadline, not a new knob, ends the stalled worker, after which the runs
// it held re-dispatch. The stalled worker keeps heartbeating, so neither
// the lease reaper nor the read deadline can be what reaps it.
func TestWriterStalledPeer(t *testing.T) {
	const n, batch = 48, 16
	ln := listen(t)
	addr := ln.Addr().String()
	events := eventlog.NewLog()
	// LeaseTTL 1s puts the write deadline at 4s (2×TTL + 2s); the stalled
	// worker's 50ms heartbeats keep its lease and its reads alive.
	e := &Engine{Listener: smallSendBuffer{ln}, BatchSize: batch, LeaseTTL: time.Second, Events: events}
	// Runs heavy enough that one batch (512 KiB) overflows the socket
	// buffers, light enough that the healthy worker's share takes a small
	// fraction of the write deadline even under the race detector.
	runs := testRuns(n)
	for i := range runs {
		runs[i].Params["blob"] = strings.Repeat("x", 32<<10)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var executed atomic.Int64
	executedAtDeath := make(chan int64, 1)
	events.Subscribe(func(ev eventlog.Event) {
		if ev.Type == eventlog.WorkerDead {
			select {
			case executedAtDeath <- executed.Load():
			default:
			}
		}
	})
	campaign := make(chan resilience.CompletenessReport, 1)
	go func() {
		_, report, _ := e.RunCampaign(ctx, "stall", runs)
		campaign <- report
	}()

	// The stalled worker: hello, read the grant, then only ever write.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.(*net.TCPConn).SetReadBuffer(4 << 10)
	stalled, err := newConn(nc, 5*time.Second, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.close()
	stalled.post(OpHello, "stalled", 0, &Hello{Slots: 1})
	grant, err := stalled.recv(5 * time.Second)
	if err != nil || grant.Op != OpLeaseGrant {
		t.Fatalf("want lease-grant, got %q err=%v", grant.Op, err)
	}
	go func() {
		for ctx.Err() == nil {
			stalled.post(OpHeartbeat, grant.Worker, grant.Lease, &Heartbeat{})
			time.Sleep(50 * time.Millisecond)
		}
	}()

	healthy := &Worker{Name: "healthy", Addr: addr, Slots: 1, Heartbeat: 20 * time.Millisecond,
		Executor: execFn(func(context.Context, cheetah.Run) error { executed.Add(1); return nil })}
	healthyDone := make(chan error, 1)
	go func() { healthyDone <- healthy.Run(ctx) }()

	select {
	case report := <-campaign:
		if !report.Complete() || report.Succeeded != n {
			t.Fatalf("report = %+v", report)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("campaign did not finish: the stalled worker was never reaped")
	}
	if err := <-healthyDone; err != nil {
		t.Errorf("healthy worker: %v", err)
	}
	if got := <-executedAtDeath; got != n-batch {
		t.Errorf("%d runs executed when the stalled worker was reaped, want %d: everything it did not hold", got, n-batch)
	}
	var reasons []string
	for _, ev := range events.Snapshot() {
		if ev.Type == eventlog.WorkerDead {
			reasons = append(reasons, ev.Attr("worker")+": "+ev.Msg)
		}
	}
	if len(reasons) != 1 || !strings.HasPrefix(reasons[0], "stalled: send failed") || !strings.Contains(reasons[0], "timeout") {
		t.Errorf("worker.dead events = %q, want one send failure by write deadline for the stalled worker", reasons)
	}
}

// TestWorkerDrainFlushesTelemetryBeforeClose pins the clean end of a
// session: every telemetry batch the drain-time flush queued is on the wire
// before the worker closes, and the stream then ends at a frame boundary.
func TestWorkerDrainFlushesTelemetryBeforeClose(t *testing.T) {
	const spans = 3*maxTelemetryBatch + 100 // four batches
	fc := newFakeCoord(t)
	defer fc.ln.Close()
	tr := telemetry.NewTracer()
	for i := 0; i < spans; i++ {
		_, sp := tr.Start(context.Background(), "backlog", telemetry.Int("i", i))
		sp.End()
	}
	w := &Worker{Name: "w0", Addr: fc.addr(), Slots: 1, Heartbeat: time.Hour, Tracer: tr,
		Executor: execFn(func(context.Context, cheetah.Run) error { return nil })}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()

	c := fc.accept(1, 1)
	defer c.close()
	c.post(OpDrain, "w0", 1, nil)
	got, batches := 0, 0
	for {
		m, err := c.recv(5 * time.Second)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("after %d spans in %d batches: %v", got, batches, err)
		}
		if m.Op != OpTelemetry {
			continue
		}
		b, err := decodeBody[TelemetryBatch](m)
		if err != nil {
			t.Fatal(err)
		}
		if b.SentUnixNano == 0 {
			t.Error("telemetry batch without the writer's send stamp")
		}
		got += len(b.Spans)
		batches++
	}
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	if want := spans + 1; got != want { // + the session span
		t.Errorf("%d spans in %d batches arrived before EOF, want %d", got, batches, want)
	}
	if batches < 4 {
		t.Errorf("%d telemetry batches, want the backlog split into at least 4", batches)
	}
}

// teeConn copies everything read from the connection into a buffer.
type teeConn struct {
	net.Conn
	mu  sync.Mutex
	got bytes.Buffer
}

func (c *teeConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.got.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// TestResultNotAckedWhenJournalRefuses makes the journal refuse every write
// from the first one after a success is on disk, while later successes are
// still to come. The campaign still returns, says so once, counts every
// refused append — and acknowledges only the results the journal took: the
// others stay in the worker's spool for a successor, with no ack for them on
// the wire.
func TestResultNotAckedWhenJournalRefuses(t *testing.T) {
	const n, gateAt = 24, 10
	jpath := filepath.Join(t.TempDir(), "attempts.jsonl")
	j, err := resilience.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	successes := func() int {
		data, _ := os.ReadFile(jpath)
		return bytes.Count(data, []byte(`"event":"success"`))
	}
	// The trip is an event, not a count of executions: the journal has taken
	// at least one success and not all of them. Journal writes are
	// serialised, so the file holds every earlier write when the hook runs.
	var refusing atomic.Bool
	appendlog.Failpoint = func(op appendlog.Op, path string) error {
		if path != jpath {
			return nil
		}
		if !refusing.Load() && op == appendlog.OpWrite {
			if k := successes(); k >= 1 && k < n {
				refusing.Store(true)
			}
		}
		if refusing.Load() {
			return syscall.EIO
		}
		return nil
	}
	defer func() { appendlog.Failpoint = nil }()
	ln := listen(t)
	events := eventlog.NewLog()
	reg := telemetry.NewRegistry()
	e := &Engine{Listener: ln, BatchSize: 4, LeaseTTL: 5 * time.Second, Events: events, Metrics: reg,
		Resilience: &resilience.Config{Journal: j}}

	var tee *teeConn
	var executed atomic.Int64
	w := &Worker{Name: "w0", Slots: 1, Heartbeat: time.Hour,
		Dial: func() (net.Conn, error) {
			nc, err := net.Dial("tcp", ln.Addr().String())
			tee = &teeConn{Conn: nc}
			return tee, err
		},
		// Execution gateAt waits until a success is on disk, so the results
		// from there on reach the journal only after it has taken one: a
		// fast worker cannot land all n in the first write.
		Executor: execFn(func(context.Context, cheetah.Run) error {
			if executed.Add(1) == gateAt {
				for deadline := time.Now().Add(5 * time.Second); successes() == 0 && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
			}
			return nil
		})}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()

	results, report, err := e.RunCampaign(context.Background(), "deaf-journal", testRuns(n))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n || report.Succeeded != n {
		t.Fatalf("report = %+v", report)
	}
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}

	journaled := map[string]bool{}
	recs, err := resilience.ReadJournalFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Event == resilience.AttemptSuccess {
			journaled[r.Run] = true
		}
	}
	if len(journaled) == 0 || len(journaled) >= n {
		t.Fatalf("%d of %d runs journaled: the journal did not start refusing mid-campaign", len(journaled), n)
	}

	acked := map[string]bool{}
	tee.mu.Lock()
	ms, _ := readAll(tee.got.Bytes())
	tee.mu.Unlock()
	for _, m := range ms {
		if m.Op != OpResultAck {
			continue
		}
		a, err := decodeBody[ResultAck](m)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range a.RunIDs {
			acked[id] = true
		}
	}
	if !reflect.DeepEqual(acked, journaled) {
		t.Errorf("acked on the wire: %d runs, journaled: %d runs; want the same set\nacked: %v\njournaled: %v",
			len(acked), len(journaled), acked, journaled)
	}
	spooled := map[string]bool{}
	for _, out := range w.spoolInit().pending() {
		spooled[out.RunID] = true
		if journaled[out.RunID] {
			t.Errorf("run %s is journaled and still spooled", out.RunID)
		}
	}
	if len(spooled) != n-len(journaled) {
		t.Errorf("spool holds %d outcomes, want the %d the journal refused", len(spooled), n-len(journaled))
	}

	warned := 0
	for _, ev := range events.Snapshot() {
		if ev.Type == eventlog.CampaignJournal {
			warned++
			if ev.Level != eventlog.Error {
				t.Errorf("campaign.journal event at level %v", ev.Level)
			}
		}
	}
	if warned != 1 {
		t.Errorf("%d campaign.journal events, want exactly 1", warned)
	}
	if got := reg.Counter("campaign.journal_append_errors_total", "engine", "remote").Value(); got < int64(len(spooled)) {
		t.Errorf("journal_append_errors_total = %d, want at least the %d refused results", got, len(spooled))
	}
}

// TestWireInstruments pins the writer's three instruments on both sides.
func TestWireInstruments(t *testing.T) {
	ln := listen(t)
	creg, wreg := telemetry.NewRegistry(), telemetry.NewRegistry()
	e := &Engine{Listener: ln, BatchSize: 8, LeaseTTL: time.Second, Metrics: creg}
	w := &Worker{Name: "w0", Addr: ln.Addr().String(), Slots: 1, Heartbeat: time.Hour, Metrics: wreg,
		Executor: execFn(func(context.Context, cheetah.Run) error { return nil })}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	if _, report, err := e.RunCampaign(context.Background(), "wire", testRuns(64)); err != nil || report.Succeeded != 64 {
		t.Fatalf("report = %+v err=%v", report, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, side := range []struct {
		reg    *telemetry.Registry
		prefix string
		least  int64 // messages this side must have written
	}{
		{creg, "remote", 1 + 1 + 1}, // grant, at least one assign, drain
		{wreg, "remote_worker", 1 + 64},
	} {
		msgs := side.reg.Counter(side.prefix + ".wire_messages_total").Value()
		flushes := side.reg.Counter(side.prefix + ".wire_flushes_total").Value()
		observed := int64(side.reg.Histogram(side.prefix+".wire_flush_seconds", nil).Count())
		if msgs < side.least || flushes < 1 || flushes > msgs || observed != flushes {
			t.Errorf("%s: %d messages, %d flushes, %d flush timings (want ≥ %d messages, 1 ≤ flushes ≤ messages, one timing per flush)",
				side.prefix, msgs, flushes, observed, side.least)
		}
	}
}
