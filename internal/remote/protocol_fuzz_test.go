package remote

import (
	"reflect"
	"testing"
	"time"

	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// FuzzRemoteMessage feeds arbitrary bytes through the whole receive path —
// stream.Decoder, msg, and decodeBody at *every* verb's body type, since a
// hostile or confused peer picks the verb — and requires that nothing
// panics. Whatever decodes cleanly as its own verb is then posted on a
// fresh connection and read back: the writer must emit a message that
// decodes to the same envelope and a deep-equal body.
func FuzzRemoteMessage(f *testing.F) {
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	merged := wireBytes(f,
		assignMsg("w0", 3, "r1"),
		ackMsg("w0", 3, "x"),
		assignMsg("w0", 3, "r2"),
		ackMsg("w0", 3, "y"))
	f.Add(merged) // a merged assign, a list ack
	// The session's bookkeeping verbs.
	f.Add(wireBytes(f,
		outMsg{op: OpLeaseGrant, worker: "w0", lease: 3, epoch: 2, body: &LeaseGrant{Campaign: "c", TTLMillis: 10_000, Epoch: 2}},
		outMsg{op: OpHeartbeat, worker: "w0", lease: 3, epoch: 2, body: &Heartbeat{RTTNanos: 1500}},
		outMsg{op: OpHeartbeatAck, worker: "w0", lease: 3, epoch: 2, body: &HeartbeatAck{EchoUnixNano: 7}},
		outMsg{op: OpSteal, worker: "w0", lease: 3, epoch: 2, body: &Steal{N: 2}}))
	f.Add(wireBytes(f, outMsg{op: OpTelemetry, worker: "w0", lease: 3, epoch: 2, body: &TelemetryBatch{
		Spans:   []telemetry.SpanData{{ID: 7, Parent: 1, Name: "remote.worker.run", Start: at, End: at.Add(time.Millisecond), Attrs: []telemetry.Attr{telemetry.String("run", "r1")}}},
		Events:  []eventlog.Event{{Seq: 4, Time: at, Level: eventlog.Warn, Type: eventlog.RunRetry, Msg: "again", Span: 7}},
		Metrics: &telemetry.MetricsSnapshot{}, DroppedSpans: 2, RTTNanos: 1500,
	}}))
	f.Add(wireBytes(f,
		outMsg{op: OpHello, worker: "w0", body: &Hello{Slots: 2, Replay: 1}},
		outMsg{op: OpResult, worker: "w0", lease: 3, epoch: 2, body: &Outcome{RunID: "r1", OK: true, Seconds: 1.25e-07, Outputs: map[string]string{"out": "sha256:ab"}, Slot: 1}},
		outMsg{op: OpStolen, worker: "w0", lease: 3, body: &Stolen{Slots: []int{8, 9}}},
		outMsg{op: OpDrain, worker: "w0", lease: 3}))
	f.Add(merged[:len(merged)-9]) // a truncated frame
	f.Add([]byte("FBS1"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, _ := readAll(data)
		if len(got) > 64 {
			got = got[:64]
		}
		var batch []outMsg
		var want []wireMsg
		for _, m := range got {
			// No verb's decoder may panic on any body.
			for op := range bodyDecoders {
				decodeVerb(msg{Op: op, Body: m.Body})
			}
			body, known, err := decodeVerb(m)
			if !known || err != nil {
				continue
			}
			// This half is about one message in, one out (the seeds above are
			// what merging emits), so keep merge from folding them: it
			// recognises *Assignment and *ResultAck, and leaves copies alone.
			switch b := body.(type) {
			case *Assignment:
				body = unmerged{b}
			case *ResultAck:
				body = unmerged{b}
			}
			batch = append(batch, outMsg{op: m.Op, worker: m.Worker, lease: m.Lease, epoch: m.Epoch, body: body})
			want = append(want, wireMsg{m.Op, m.Worker, m.Lease, m.Epoch, body})
		}
		if len(batch) == 0 {
			return
		}
		back, err := readAll(wireBytes(t, batch...))
		if len(back) != len(want) {
			t.Fatalf("posted %d messages, read back %d (%v)", len(want), len(back), err)
		}
		for i, m := range decoded(t, back) {
			w := want[i]
			if u, ok := w.Body.(unmerged); ok {
				w.Body = u.wireBody
			}
			if !reflect.DeepEqual(m, w) {
				t.Fatalf("message %d changed in the round trip:%s\nwant:%s", i, render([]wireMsg{m}), render([]wireMsg{w}))
			}
		}
	})
}

// unmerged hides a body's concrete type from merge.
type unmerged struct{ wireBody }
