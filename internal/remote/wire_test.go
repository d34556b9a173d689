package remote

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"fairflow/internal/cheetah"
	"fairflow/internal/stream"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// decodeAs decodes a body as T and returns it the way it is posted: by
// pointer.
func decodeAs[T any, P interface {
	*T
	wireBody
	readWire(*rbuf)
}](m msg) (wireBody, error) {
	v, err := decodeBody[T, P](m)
	if err != nil {
		return nil, err
	}
	return P(&v), nil
}

// bodyDecoders maps every verb that carries a body to its decoder.
var bodyDecoders = map[string]func(msg) (wireBody, error){
	OpHello:        decodeAs[Hello],
	OpLeaseGrant:   decodeAs[LeaseGrant],
	OpAssign:       decodeAs[Assignment],
	OpResult:       decodeAs[Outcome],
	OpHeartbeat:    decodeAs[Heartbeat],
	OpHeartbeatAck: decodeAs[HeartbeatAck],
	OpSteal:        decodeAs[Steal],
	OpStolen:       decodeAs[Stolen],
	OpResultAck:    decodeAs[ResultAck],
	OpTelemetry:    decodeAs[TelemetryBatch],
}

// decodeVerb parses a message body as its verb's payload type (nil for
// drain, which has none); ok is false for a verb the protocol does not know.
func decodeVerb(m msg) (body wireBody, ok bool, err error) {
	if m.Op == OpDrain {
		return nil, true, nil
	}
	dec, ok := bodyDecoders[m.Op]
	if !ok {
		return nil, false, nil
	}
	body, err = dec(m)
	return body, true, err
}

// goldenBodies is one pinned body per verb: the bytes are the protocol. A
// change here is a layout change, and a layout change bumps msgSchema.Name
// (see the comment there) — do not edit a vector without doing that.
var goldenBodies = []struct {
	op   string
	body wireBody
	hex  string
}{
	{OpHello, &Hello{Slots: 2}, "04"},
	{OpLeaseGrant, &LeaseGrant{Campaign: "c", TTLMillis: 1500, Component: "sha256:ab",
		Inputs: map[string]string{"b": "2", "a": "1"}, Epoch: 3},
		"0163b8170973686132" + "35363a616202016101310162013206"},
	{OpAssign, &Assignment{
		Runs: []cheetah.Run{
			{ID: "g/s/run-00001", Group: "g", Sweep: "s", Index: 1, Params: map[string]string{"x": "1"}},
			{ID: "g/s/run-00002", Group: "g", Sweep: "s", Index: 2}}},
		"020d672f732f72756e2d303030303101670173020101780131" + "0d672f732f72756e2d3030303032016701730400"},
	{OpResult, &Outcome{RunID: "r1", OK: true, Seconds: 1.5, Outputs: map[string]string{"out": "sha256:ab"},
		CPUUserSeconds: 0.25, MaxRSSBytes: 4096},
		"0272310100000000000000f83f000001036f7574097368613235363a6162" + "000000000000d03f00000000000000008040"},
	{OpResult, &Outcome{RunID: "r2", Cached: true, Err: "boom", Class: "transient"},
		"0272320001000000000000000004626f6f6d097472616e7369656e7400" + "0000000000000000000000000000000000"},
	{OpHeartbeat, &Heartbeat{Queued: 3, InFlight: 1, SentUnixNano: 1_700_000_000_000_000_000, RTTNanos: 1500},
		"06028080d0e2c6bfce972fb817"},
	{OpHeartbeatAck, &HeartbeatAck{EchoUnixNano: 7}, "0e"},
	{OpSteal, &Steal{N: 2}, "04"},
	{OpStolen, &Stolen{RunIDs: []string{"r8", "r9"}}, "02027238027239"},
	{OpResultAck, &ResultAck{RunIDs: []string{"x", "y"}}, "0201780179"},
	{OpTelemetry, goldenBatch(),
		// two spans: the second's zero times are ffdb8ff9ce03 00
		"020e02" + "1172656d6f74652e776f726b65722e72756e" +
			"cad6b9950dd804cad6b9950d98893d010372756e027231" + "1000046f70656effdb8ff9ce0300ffdb8ff9ce030000" +
			// one event, level warn
			"0108cad6b9950dd804020972756e2e726574727905616761696e0e020372756e02723107617474656d70740132" +
			// metrics present: a counter, a gauge, a histogram
			"01" + "01016301016b017606" + "01016700000000000000e0bf" + "0101680002fca9f1d24d62503f000000000000f03f0202ac02010000000000002940af02" +
			// dropped spans, dropped events, sent, rtt
			"04028080d0e2c6bfce972fb817"},
}

// remoteV2Trace is a traceparent as remote.v2 carried one per run.
const remoteV2Trace = "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"

// remoteV2Bodies are the assign and telemetry vectors of the previous
// layout, remote.v2, in which an assign ended in a trace map (run id →
// traceparent) and a span carried a remote-parent string after its parent
// id. A v2 peer is refused at its first record by the schema check; its
// bodies stay fuzz seeds, which every reader must refuse or round-trip.
var remoteV2Bodies = []string{
	"020d672f732f72756e2d303030303101670173020101780131" + "0d672f732f72756e2d3030303032016701730400" +
		"010d672f732f72756e2d303030303137" + hex.EncodeToString([]byte(remoteV2Trace)),
	"020e0237" + hex.EncodeToString([]byte(remoteV2Trace)) + "1172656d6f74652e776f726b65722e72756e" +
		"cad6b9950dd804cad6b9950d98893d010372756e027231" + "100000046f70656effdb8ff9ce0300ffdb8ff9ce030000" +
		"0108cad6b9950dd804020972756e2e726574727905616761696e0e020372756e02723107617474656d70740132" +
		"01" + "01016301016b017606" + "01016700000000000000e0bf" + "0101680002fca9f1d24d62503f000000000000f03f0202ac02010000000000002940af02" +
		"04028080d0e2c6bfce972fb817",
}

func goldenBatch() *TelemetryBatch {
	at := time.Date(2026, 1, 2, 3, 4, 5, 600, time.UTC)
	return &TelemetryBatch{
		Spans: []telemetry.SpanData{
			{ID: 7, Parent: 1, Name: "remote.worker.run", Start: at, End: at.Add(time.Millisecond),
				Attrs: []telemetry.Attr{telemetry.String("run", "r1")}},
			{ID: 8, Name: "open"}, // zero times stay zero
		},
		Events: []eventlog.Event{{Seq: 4, Time: at, Level: eventlog.Warn, Type: eventlog.RunRetry, Msg: "again", Span: 7,
			Attrs: []telemetry.Attr{telemetry.String("run", "r1"), telemetry.Int("attempt", 2)}}},
		Metrics: &telemetry.MetricsSnapshot{
			Counters: []telemetry.CounterSnap{{Name: "c", Labels: map[string]string{"k": "v"}, Value: 3}},
			Gauges:   []telemetry.GaugeSnap{{Name: "g", Value: -0.5}},
			Histograms: []telemetry.HistogramSnap{{Name: "h", Bounds: []float64{0.001, 1}, Counts: []uint64{2, 300},
				Inf: 1, Sum: 12.5, Count: 303}},
		},
		DroppedSpans: 2, DroppedEvents: 1, SentUnixNano: 1_700_000_000_000_000_000, RTTNanos: 1500,
	}
}

func encodeBody(b wireBody) []byte { return b.appendWire(nil) }

// TestWireGolden pins every verb's layout on bytes, both ways.
func TestWireGolden(t *testing.T) {
	for i, g := range goldenBodies {
		t.Run(fmt.Sprintf("%s#%d", g.op, i), func(t *testing.T) {
			got := hex.EncodeToString(encodeBody(g.body))
			if got != g.hex {
				t.Fatalf("encoded:\n  %s\nwant:\n  %s", got, g.hex)
			}
			raw, _ := hex.DecodeString(g.hex)
			back, _, err := decodeVerb(msg{Op: g.op, Body: raw})
			if err != nil || !reflect.DeepEqual(back, g.body) {
				t.Fatalf("decoded %+v (err %v)\nwant %+v", back, err, g.body)
			}
		})
	}
	covered := map[string]bool{}
	for _, g := range goldenBodies {
		covered[g.op] = true
	}
	for op := range bodyDecoders {
		if !covered[op] {
			t.Errorf("no golden vector for %s", op)
		}
	}
}

// FuzzWireBody feeds arbitrary bytes to every verb's readWire: nothing
// panics, and whatever decodes cleanly re-encodes to bytes that decode to a
// deep-equal value. Seeds are the golden vectors, then remote.v2's, and
// every proper prefix of each.
func FuzzWireBody(f *testing.F) {
	vectors := make([]string, 0, len(goldenBodies)+len(remoteV2Bodies))
	for _, g := range goldenBodies {
		vectors = append(vectors, g.hex)
	}
	for _, v := range append(vectors, remoteV2Bodies...) {
		raw, _ := hex.DecodeString(v)
		for n := 0; n <= len(raw); n++ {
			f.Add(raw[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for op, dec := range bodyDecoders {
			v, err := dec(msg{Op: op, Body: data})
			if err != nil {
				if !strings.HasPrefix(err.Error(), "remote: bad "+op+" body: ") {
					t.Fatalf("%s: error %q does not name the verb", op, err)
				}
				continue
			}
			again, err := dec(msg{Op: op, Body: encodeBody(v)})
			if err != nil {
				t.Fatalf("%s: %+v re-encoded does not decode: %v", op, v, err)
			}
			// An empty body is the zero value, whose encoding is not empty.
			if !reflect.DeepEqual(v, again) {
				t.Fatalf("%s changed in the round trip:\n got %+v\nwant %+v", op, again, v)
			}
		}
	})
}

// TestWireRejects pins the reader's refusals: each is an error naming the
// verb, never a panic, never a partial value.
func TestWireRejects(t *testing.T) {
	outcome := encodeBody(&Outcome{RunID: "r", Seconds: 1})
	nan := bytes.Clone(outcome)
	copy(nan[4:], encodeBody(&Outcome{RunID: "r", Seconds: math.NaN()})[4:12])
	cases := []struct {
		name, op string
		body     []byte
		want     string
	}{
		// 2³² spans claimed by a 5-byte body: refused at the count, before
		// anything that size could be allocated.
		{"count beyond the body", OpTelemetry, []byte{0x80, 0x80, 0x80, 0x80, 0x10}, "count exceeds"},
		{"string beyond the body", OpStolen, []byte{1, 200, 'x'}, "past the end"},
		{"trailing bytes", OpHello, []byte{4, 0}, "trailing bytes"},
		{"truncated", OpResult, outcome[:len(outcome)-1], "varint"},
		{"overlong varint", OpSteal, bytes.Repeat([]byte{0xff}, 11), "varint"},
		{"non-finite float", OpResult, nan, "non-finite"},
		{"bool out of range", OpResult, append([]byte{1, 'r', 2}, outcome[3:]...), "bool"},
		{"map keys out of order", OpLeaseGrant, []byte{0, 0, 0, 2, 1, 'b', 0, 1, 'a', 0, 0}, "out of order"},
		{"map key repeated", OpLeaseGrant, []byte{0, 0, 0, 2, 1, 'a', 0, 1, 'a', 0, 0}, "out of order"},
		{"time out of range", OpTelemetry, encodeBody(&TelemetryBatch{Spans: []telemetry.SpanData{{ID: 1, Start: time.Unix(1<<40, 0)}}}), "time out of range"},
		{"unknown level", OpTelemetry, encodeBody(&TelemetryBatch{Events: []eventlog.Event{{Level: 9}}}), "level"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, _, err := decodeVerb(msg{Op: tc.op, Body: tc.body})
			if err == nil || !strings.HasPrefix(err.Error(), "remote: bad "+tc.op+" body: ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want a bad-%s-body error mentioning %q", err, tc.op, tc.want)
			}
			if v != nil {
				t.Fatalf("a refused body still produced %+v", v)
			}
		})
	}
	if v, err := decodeBody[Heartbeat](msg{Op: OpHeartbeat}); err != nil || v != (Heartbeat{}) {
		t.Errorf("empty body = %+v, %v; want the zero value", v, err)
	}
}

// TestWireEncodeAllocs pins the writer's steady state: with a warm scratch
// buffer, the two bodies on the per-run path encode without allocating.
func TestWireEncodeAllocs(t *testing.T) {
	out := &Outcome{RunID: "g/s/run-00042", OK: true, Seconds: 1.25e-07, Outputs: map[string]string{"out": "sha256:ab"}}
	a := &Assignment{}
	for i := 0; i < 8; i++ {
		a.Runs = append(a.Runs, cheetah.Run{ID: fmt.Sprintf("g/s/run-%05d", i), Group: "g", Sweep: "s", Index: i,
			Params: map[string]string{"x": "1", "y": "2", "z": "3"}})
	}
	for _, body := range []wireBody{out, a} {
		scratch := body.appendWire(nil)
		if n := testing.AllocsPerRun(200, func() { scratch = body.appendWire(scratch[:0]) }); n != 0 {
			t.Errorf("%T encodes with %.0f allocations into a warm buffer, want 0", body, n)
		}
	}
}

// TestWireWriteAllocs pins the writer's envelope: once the body buffer and
// the stream header are warm, writing a result and a merged assign — the
// per-run traffic — allocates nothing.
func TestWireWriteAllocs(t *testing.T) {
	bc := &bufConn{}
	c, err := newConn(bc, 0, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	out := &Outcome{RunID: "g/s/run-00042", OK: true, Seconds: 1.25e-07}
	batch := merge([]outMsg{
		{op: OpResult, worker: "w0", lease: 3, epoch: 2, body: out},
		assignMsg("w0", 3, "g/s/run-00001"),
		assignMsg("w0", 3, "g/s/run-00002"),
	})
	if len(batch) != 2 {
		t.Fatalf("merged batch has %d messages, want 2", len(batch))
	}
	write := func() {
		if err := c.write(batch); err != nil {
			t.Fatal(err)
		}
		bc.mu.Lock()
		bc.w.Reset()
		bc.mu.Unlock()
	}
	write()
	if n := testing.AllocsPerRun(200, write); n != 0 {
		t.Errorf("conn.write of a result and a merged assign: %.1f allocations, want 0", n)
	}
}

// TestWireRecvAllocs pins the reader's budget for a result: the body the
// message owns, and the one string every id in it is cut from. The verb and
// the worker name are interned, the envelope is read without boxing and the
// decoded Outcome stays on the stack.
func TestWireRecvAllocs(t *testing.T) {
	want := Outcome{RunID: "g/s/run-00042", OK: true, Seconds: 1.25e-07, CPUUserSeconds: 0.5, MaxRSSBytes: 4096}
	const n = 300
	batch := make([]outMsg, n)
	for i := range batch {
		o := want
		batch[i] = outMsg{op: OpResult, worker: "w0", lease: 3, epoch: 2, body: &o}
	}
	c := &conn{c: &bufConn{}, dec: stream.NewDecoder(bytes.NewReader(wireBytes(t, batch...)))}
	recv := func() {
		m, err := c.recv(-1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeBody[Outcome](m)
		same := got.RunID == want.RunID && got.OK && got.Seconds == want.Seconds &&
			got.CPUUserSeconds == want.CPUUserSeconds && got.MaxRSSBytes == want.MaxRSSBytes && got.Outputs == nil
		if err != nil || !same || m.Op != OpResult || m.Worker != "w0" || m.Lease != 3 || m.Epoch != 2 {
			t.Fatalf("recv = %+v, %+v, %v", m, got, err)
		}
	}
	recv() // the stream header, and the worker name's first sighting
	if a := testing.AllocsPerRun(n-2, recv); a > 2 {
		t.Errorf("recv + decodeBody[Outcome]: %.1f allocations, want at most 2", a)
	}
}

// randBodies builds one random body of every type. Containers come out nil,
// empty or filled; strings empty, ASCII or multi-byte; ints small or 64-bit
// wide; times zero or anywhere in years 1–9999, in assorted zones.
type randBodies struct{ *rand.Rand }

func (r randBodies) str() string {
	words := []string{"", "a", "run", "g/s/run-00042", "sha256:0123abcd", "ünï©ode ✓", "with \"quotes\"\n", strings.Repeat("x", 300)}
	return words[r.Intn(len(words))]
}

func (r randBodies) i64() int64 {
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return int64(r.Intn(200)) - 100
	case 2:
		return int64(r.Uint64()) // any 64 bits, negatives included
	default:
		return r.Int63n(1 << 40)
	}
}

func (r randBodies) f64() float64 {
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return r.NormFloat64()
	case 2:
		return math.Float64frombits(r.Uint64()&^(0x7ff<<52) | uint64(r.Intn(0x7ff))<<52) // any finite bits
	default:
		return 1.25e-07
	}
}

func (r randBodies) time() time.Time {
	if r.Intn(5) == 0 {
		return time.Time{}
	}
	t := time.Unix(minUnix+86400+r.Int63n(maxUnix-minUnix-2*86400), r.Int63n(1e9))
	switch r.Intn(3) {
	case 0:
		return t.UTC()
	case 1:
		return t.In(time.FixedZone("east", 5*3600+1800))
	default:
		return t.In(time.FixedZone("west", -8*3600))
	}
}

// n is a container length: absent, present-but-empty (as size 0 of a made
// container), or small.
func (r randBodies) n() int { return r.Intn(5) - 1 }

func (r randBodies) strMap() map[string]string {
	n := r.n()
	if n < 0 {
		return nil
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		m[r.str()+fmt.Sprint(r.Intn(50))] = r.str()
	}
	return m
}

func randList[T any](r randBodies, one func() T) []T {
	n := r.n()
	if n < 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = one()
	}
	return out
}

func (r randBodies) attrs() []telemetry.Attr {
	return randList(r, func() telemetry.Attr { return telemetry.Attr{Key: r.str(), Value: r.str()} })
}

func (r randBodies) all() []wireBody {
	batch := &TelemetryBatch{
		Spans: randList(r, func() telemetry.SpanData {
			return telemetry.SpanData{ID: r.i64(), Parent: r.i64(), Name: r.str(),
				Start: r.time(), End: r.time(), Attrs: r.attrs()}
		}),
		Events: randList(r, func() eventlog.Event {
			return eventlog.Event{Seq: r.i64(), Time: r.time(), Level: eventlog.Level(r.Intn(4)),
				Type: r.str(), Msg: r.str(), Span: r.i64(), Attrs: r.attrs()}
		}),
		DroppedSpans: r.i64(), DroppedEvents: r.i64(), SentUnixNano: r.i64(), RTTNanos: r.i64(),
	}
	if r.Intn(3) > 0 {
		batch.Metrics = &telemetry.MetricsSnapshot{
			Counters: randList(r, func() telemetry.CounterSnap {
				return telemetry.CounterSnap{Name: r.str(), Labels: r.strMap(), Value: r.i64()}
			}),
			Gauges: randList(r, func() telemetry.GaugeSnap {
				return telemetry.GaugeSnap{Name: r.str(), Labels: r.strMap(), Value: r.f64()}
			}),
			Histograms: randList(r, func() telemetry.HistogramSnap {
				return telemetry.HistogramSnap{Name: r.str(), Labels: r.strMap(),
					Bounds: randList(r, r.f64), Counts: randList(r, r.Uint64),
					Inf: r.Uint64(), Sum: r.f64(), Count: r.Uint64()}
			}),
		}
	}
	return []wireBody{
		&Hello{Slots: int(r.i64())},
		&LeaseGrant{Campaign: r.str(), TTLMillis: r.i64(), Component: r.str(), Inputs: r.strMap(), Epoch: r.i64()},
		&Assignment{Runs: randList(r, func() cheetah.Run {
			return cheetah.Run{ID: r.str(), Group: r.str(), Sweep: r.str(), Index: int(r.i64()), Params: r.strMap()}
		})},
		&Outcome{RunID: r.str(), OK: r.Intn(2) == 0, Cached: r.Intn(2) == 0, Seconds: r.f64(), Err: r.str(),
			Class: r.str(), Outputs: r.strMap(), CPUUserSeconds: r.f64(), CPUSystemSeconds: r.f64(), MaxRSSBytes: r.i64()},
		&Heartbeat{Queued: int(r.i64()), InFlight: int(r.i64()), SentUnixNano: r.i64(), RTTNanos: r.i64()},
		&HeartbeatAck{EchoUnixNano: r.i64()},
		&Steal{N: int(r.i64())},
		&Stolen{RunIDs: randList(r, r.str)},
		&ResultAck{RunIDs: randList(r, r.str)},
		batch,
	}
}

// sameValue is reflect.DeepEqual with the two allowances the move off JSON
// needs: times are compared as instants (the wire carries no zone; JSON
// carried an offset), and an empty map or slice equals a nil one (the wire
// carries a count; JSON distinguished null, absent and empty by tag).
func sameValue(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	if t, ok := a.Interface().(time.Time); ok {
		return t.Equal(b.Interface().(time.Time))
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() || !sameValue(it.Value(), bv) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	default:
		return a.Interface() == b.Interface()
	}
}

// TestWireMatchesJSON is the equivalence check for the move off JSON bodies:
// for seeded random bodies of every type, decoding what the wire codec
// encoded gives the value a json.Marshal / json.Unmarshal round trip gave.
func TestWireMatchesJSON(t *testing.T) {
	ops := []string{OpHello, OpLeaseGrant, OpAssign, OpResult, OpHeartbeat, OpHeartbeatAck, OpSteal, OpStolen, OpResultAck, OpTelemetry}
	for seed := int64(1); seed <= 300; seed++ {
		for i, body := range (randBodies{rand.New(rand.NewSource(seed))}).all() {
			viaWire, _, err := decodeVerb(msg{Op: ops[i], Body: encodeBody(body)})
			if err != nil {
				t.Fatalf("seed %d: %+v does not decode: %v", seed, body, err)
			}
			raw, err := json.Marshal(body)
			if err != nil {
				t.Fatalf("seed %d: %T: %v", seed, body, err)
			}
			viaJSON := reflect.New(reflect.TypeOf(body).Elem())
			if err := json.Unmarshal(raw, viaJSON.Interface()); err != nil {
				t.Fatalf("seed %d: %T: %v", seed, body, err)
			}
			if !sameValue(reflect.ValueOf(viaWire), viaJSON) {
				t.Fatalf("seed %d: %T differs\nwire: %+v\njson: %+v", seed, body, viaWire, viaJSON.Interface())
			}
			// And the wire round trip is exact but for zones and nil-vs-empty.
			if !sameValue(reflect.ValueOf(viaWire), reflect.ValueOf(body)) {
				t.Fatalf("seed %d: %T not preserved\nwire: %+v\nsent: %+v", seed, body, viaWire, body)
			}
		}
	}
}
