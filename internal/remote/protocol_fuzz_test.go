package remote

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// decodeVerb parses a message body as its verb's payload type; ok is false
// for a verb the protocol does not know.
func decodeVerb(m msg) (body any, ok bool, err error) {
	switch m.Op {
	case OpHello:
		body, err = decodeBody[Hello](m)
	case OpLeaseGrant:
		body, err = decodeBody[LeaseGrant](m)
	case OpAssign:
		body, err = decodeBody[Assignment](m)
	case OpResult:
		body, err = decodeBody[Outcome](m)
	case OpHeartbeat:
		body, err = decodeBody[Heartbeat](m)
	case OpHeartbeatAck:
		body, err = decodeBody[HeartbeatAck](m)
	case OpSteal:
		body, err = decodeBody[Steal](m)
	case OpStolen:
		body, err = decodeBody[Stolen](m)
	case OpTelemetry:
		body, err = decodeBody[TelemetryBatch](m)
	case OpResultAck:
		body, err = decodeBody[ResultAck](m)
	case OpDrain:
		return nil, true, nil
	default:
		return nil, false, nil
	}
	return body, true, err
}

// FuzzRemoteMessage feeds arbitrary bytes through the whole receive path —
// stream.Decoder, msg, and decodeBody at *every* verb's body type, since a
// hostile or confused peer picks the verb — and requires that nothing
// panics. Whatever decodes cleanly as its own verb is then posted on a
// fresh connection and read back: the writer must emit a message that
// decodes to the same thing (bodies compared as canonical JSON, so a nil
// and an empty map are one value).
func FuzzRemoteMessage(f *testing.F) {
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	merged := wireBytes(f,
		assignMsg("w0", 3, map[string]string{"r1": "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"}, "r1"),
		ackMsg("w0", 3, "x"),
		assignMsg("w0", 3, map[string]string{"r2": "00-0123456789abcdef0123456789abcdef-fedcba9876543210-01"}, "r2"),
		ackMsg("w0", 3, "y"))
	f.Add(merged)                                // a merged assign with its trace map, a list ack
	f.Add(wireBytes(f, ackMsg("w0", 3, "lone"))) // the single-run ack an older coordinator sends
	f.Add(wireBytes(f, outMsg{op: OpTelemetry, worker: "w0", lease: 3, epoch: 2, body: &TelemetryBatch{
		Spans:   []telemetry.SpanData{{ID: 7, Parent: 1, Name: "remote.worker.run", Start: at, End: at.Add(time.Millisecond), Attrs: []telemetry.Attr{telemetry.String("run", "r1")}}},
		Events:  []eventlog.Event{{Seq: 4, Time: at, Level: eventlog.Warn, Type: eventlog.RunRetry, Msg: "again", Span: 7}},
		Metrics: &telemetry.MetricsSnapshot{}, DroppedSpans: 2, RTTNanos: 1500,
	}}))
	f.Add(wireBytes(f,
		outMsg{op: OpHello, worker: "w0", body: Hello{Slots: 2}},
		outMsg{op: OpResult, worker: "w0", lease: 3, epoch: 2, body: Outcome{RunID: "r1", OK: true, Seconds: 1.25e-07, Outputs: map[string]string{"out": "sha256:ab"}}},
		outMsg{op: OpStolen, worker: "w0", lease: 3, body: Stolen{RunIDs: []string{"r8", "r9"}}},
		outMsg{op: OpDrain, worker: "w0", lease: 3}))
	f.Add(merged[:len(merged)-9]) // a truncated frame
	f.Add([]byte("FBS1"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, _ := readAll(data)
		if len(got) > 64 {
			got = got[:64]
		}
		var batch []outMsg
		var want []msg
		for _, m := range got {
			// No verb's decoder may panic on any body.
			for _, op := range []string{OpHello, OpLeaseGrant, OpAssign, OpResult, OpHeartbeat,
				OpHeartbeatAck, OpSteal, OpStolen, OpTelemetry, OpResultAck} {
				decodeVerb(msg{Op: op, Body: m.Body})
			}
			body, known, err := decodeVerb(m)
			if !known || err != nil {
				continue
			}
			// Bodies go back by value: merge folds only *Assignment and
			// *ResultAck, and this half is about one message in, one out
			// (the seeds above are what merging emits).
			canon, err := json.Marshal(body)
			if err != nil {
				t.Fatalf("%s body decoded from the wire does not marshal: %v", m.Op, err)
			}
			if body == nil {
				canon = nil
			}
			batch = append(batch, outMsg{op: m.Op, worker: m.Worker, lease: m.Lease, epoch: m.Epoch, body: body})
			want = append(want, msg{Op: m.Op, Worker: m.Worker, Lease: m.Lease, Epoch: m.Epoch, Body: canon})
		}
		if len(batch) == 0 {
			return
		}
		back, err := readAll(wireBytes(t, batch...))
		if len(back) != len(want) {
			t.Fatalf("posted %d messages, read back %d (%v)", len(want), len(back), err)
		}
		for i, m := range back {
			body, _, err := decodeVerb(m)
			if err != nil {
				t.Fatalf("message %d (%s): what the writer emitted does not decode: %v", i, m.Op, err)
			}
			canon, _ := json.Marshal(body)
			if body == nil {
				canon = nil
			}
			w := want[i]
			if m.Op != w.Op || m.Worker != w.Worker || m.Lease != w.Lease || m.Epoch != w.Epoch || !bytes.Equal(canon, w.Body) {
				t.Fatalf("message %d changed in the round trip:\n got %s %q/%d@%d %s\nwant %s %q/%d@%d %s",
					i, m.Op, m.Worker, m.Lease, m.Epoch, canon, w.Op, w.Worker, w.Lease, w.Epoch, w.Body)
			}
		}
	})
}
