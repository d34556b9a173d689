// Wire bodies: the positional binary codec of every message body. The FBS
// envelope (msgSchema) stays self-describing; the body inside it is not —
// each verb's fields travel in struct order with no names or tags, and
// DESIGN.md §4g is where the layouts are written down. Primitives:
//
//	int     varint (zig-zag)            uint    uvarint
//	string  uvarint length + bytes      bool    one byte, 0 or 1
//	float   8 bytes, IEEE-754 bits LE   time    varint Unix seconds + uvarint nanoseconds
//	list    uvarint count + elements    map     list of key, value strings in ascending key order
//
// Encoding is append-style into a buffer the connection's writer reuses, so a
// warm buffer encodes without allocating. Decoding goes through one reader
// that latches its first error and never panics; it refuses what JSON could
// not carry either (non-finite floats, years outside 1–9999), any count that
// exceeds the bytes left in the body (checked before the list is allocated),
// map keys out of order, and trailing bytes.

package remote

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"time"

	"fairflow/internal/cheetah"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// wireBody is a message body the writer can encode. Every body type
// implements it, and readWire, on its pointer.
type wireBody interface{ appendWire([]byte) []byte }

func appendInt(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// appendTime writes seconds and nanoseconds apart, so the zero time (year 1,
// outside UnixNano's range) survives the trip.
func appendTime(b []byte, t time.Time) []byte {
	return binary.AppendUvarint(binary.AppendVarint(b, t.Unix()), uint64(t.Nanosecond()))
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

// appendMap writes the entries in ascending key order: the same message is
// always the same bytes. Up to 32 keys sort on the stack.
func appendMap(b []byte, m map[string]string) []byte {
	b = binary.AppendUvarint(b, uint64(len(m)))
	if len(m) == 0 {
		return b
	}
	var stack [32]string
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b = appendString(appendString(b, k), m[k])
	}
	return b
}

func appendAttrs(b []byte, attrs []telemetry.Attr) []byte {
	b = binary.AppendUvarint(b, uint64(len(attrs)))
	for _, a := range attrs {
		b = appendString(appendString(b, a.Key), a.Value)
	}
	return b
}

// rbuf reads one body. The first failure is latched in err and empties the
// buffer, after which every read returns a zero value: decoders read straight
// through and check once, in finish.
//
// Strings cost one allocation per body, not one per field: the first
// non-empty str converts the whole body to one string, and every string
// read from the body is a substring of it. The retention rule that follows:
// a string kept from a decoded message — a run id in a map, a parameter —
// pins that one message's body, and nothing else.
type rbuf struct {
	b    []byte // what is left to read
	body []byte // the whole body
	s    string // string(body), made by the first non-empty str
	err  error
}

func (r *rbuf) fail(msg string) {
	if r.err == nil {
		r.err = errors.New(msg)
	}
	r.b = nil
}

// finish reports the latched error; bytes left over are one.
func (r *rbuf) finish() error {
	if len(r.b) > 0 {
		r.fail("trailing bytes")
	}
	return r.err
}

func (r *rbuf) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// varint undoes binary.AppendVarint's zig-zag.
func (r *rbuf) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *rbuf) int() int { return int(r.varint()) }

// take returns the next n bytes, or nil (and fails) when fewer remain.
func (r *rbuf) take(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.fail("length runs past the end of the body")
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *rbuf) str() string {
	p := r.take(r.uvarint())
	if len(p) == 0 {
		return ""
	}
	if r.s == "" {
		r.s = string(r.body)
	}
	at := len(r.body) - len(r.b) - len(p)
	return r.s[at : at+len(p)]
}

func (r *rbuf) bool() bool {
	p := r.take(1)
	if len(p) == 1 && p[0] > 1 {
		r.fail("bool is neither 0 nor 1")
	}
	return len(p) == 1 && p[0] == 1
}

func (r *rbuf) float() float64 {
	p := r.take(8)
	if len(p) != 8 {
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(p))
	if math.IsNaN(f) || math.IsInf(f, 0) {
		r.fail("non-finite float")
		return 0
	}
	return f
}

// Unix seconds of 0001-01-01 and 9999-12-31T23:59:59, the range RFC 3339 —
// and so every JSON consumer of a span or an event — can print.
const minUnix, maxUnix = -62135596800, 253402300799

func (r *rbuf) time() time.Time {
	sec, nsec := r.varint(), r.uvarint()
	if sec < minUnix || sec > maxUnix || nsec >= 1e9 {
		r.fail("time out of range")
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// count reads a list length. Each element occupies at least min bytes, so a
// count above what the rest of the body could hold is refused here, before
// the caller allocates for it: memory asked for stays proportional to bytes
// sent, and FBS's 16 MiB blob bound caps the whole.
func (r *rbuf) count(min int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/min) {
		r.fail("count exceeds the bytes left in the body")
		return 0
	}
	return int(n)
}

// list reads a list's count and makes room for its elements, of at least
// min wire bytes each; an empty list is nil. The caller reads the elements
// in place in a plain loop: a per-element callback would be an indirect
// call, which moves the reader to the heap. After a failure the loop reads
// zeros, at most one per byte the body had left.
func list[T any](r *rbuf, min int) []T {
	n := r.count(min)
	if n == 0 {
		return nil
	}
	return make([]T, n)
}

func (r *rbuf) strs() []string {
	ss := list[string](r, 1)
	for i := range ss {
		ss[i] = r.str()
	}
	return ss
}

func (r *rbuf) strMap() map[string]string {
	n := r.count(2)
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	last := ""
	for i := 0; i < n; i++ {
		k, v := r.str(), r.str()
		if i > 0 && k <= last {
			r.fail("map keys out of order")
			return nil
		}
		m[k], last = v, k
	}
	return m
}

func (r *rbuf) attrs() []telemetry.Attr {
	as := list[telemetry.Attr](r, 2)
	for i := range as {
		as[i].Key, as[i].Value = r.str(), r.str()
	}
	return as
}

func (h *Hello) appendWire(b []byte) []byte {
	return appendInt(appendInt(b, int64(h.Slots)), int64(h.Replay))
}
func (h *Hello) readWire(r *rbuf) { h.Slots, h.Replay = r.int(), r.int() }

func (g *LeaseGrant) appendWire(b []byte) []byte {
	b = appendInt(appendInt(appendString(b, g.Campaign), g.TTLMillis), g.Epoch)
	return append(b, g.Trace[:]...)
}

func (g *LeaseGrant) readWire(r *rbuf) {
	g.Campaign, g.TTLMillis, g.Epoch = r.str(), r.varint(), r.varint()
	copy(g.Trace[:], r.take(16))
}

func (a *Assignment) appendWire(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(a.Runs)))
	for i := range a.Runs {
		run := &a.Runs[i]
		b = appendString(appendString(appendString(binary.AppendUvarint(b, uint64(a.Slots[i])), run.ID), run.Group), run.Sweep)
		b = appendMap(appendInt(b, int64(run.Index)), run.Params)
	}
	return b
}

func (a *Assignment) readWire(r *rbuf) {
	a.Runs = list[cheetah.Run](r, 6)
	if a.Runs != nil {
		a.Slots = make([]int, len(a.Runs))
	}
	for i := range a.Runs {
		run := &a.Runs[i]
		a.Slots[i], run.ID, run.Group, run.Sweep = int(r.uvarint()), r.str(), r.str(), r.str()
		run.Index, run.Params = r.int(), r.strMap()
	}
}

func (o *Outcome) appendWire(b []byte) []byte {
	b = appendBool(appendBool(appendString(b, o.RunID), o.OK), o.Cached)
	b = appendString(appendString(appendFloat(b, o.Seconds), o.Err), o.Class)
	b = appendFloat(appendFloat(appendMap(b, o.Outputs), o.CPUUserSeconds), o.CPUSystemSeconds)
	b = appendInt(appendInt(appendInt(b, o.MaxRSSBytes), o.StartUnixNano), o.QueueWaitNanos)
	return binary.AppendUvarint(appendInt(b, o.Span), uint64(o.Slot))
}

func (o *Outcome) readWire(r *rbuf) {
	o.RunID, o.OK, o.Cached = r.str(), r.bool(), r.bool()
	o.Seconds, o.Err, o.Class = r.float(), r.str(), r.str()
	o.Outputs, o.CPUUserSeconds, o.CPUSystemSeconds = r.strMap(), r.float(), r.float()
	o.MaxRSSBytes, o.StartUnixNano, o.QueueWaitNanos, o.Span = r.varint(), r.varint(), r.varint(), r.varint()
	o.Slot = int(r.uvarint())
}

func (h *Heartbeat) appendWire(b []byte) []byte {
	return appendInt(appendInt(b, h.SentUnixNano), h.RTTNanos)
}

func (h *Heartbeat) readWire(r *rbuf) { h.SentUnixNano, h.RTTNanos = r.varint(), r.varint() }

func (a *HeartbeatAck) appendWire(b []byte) []byte { return appendInt(b, a.EchoUnixNano) }
func (a *HeartbeatAck) readWire(r *rbuf)           { a.EchoUnixNano = r.varint() }

func (s *Steal) appendWire(b []byte) []byte { return appendInt(b, int64(s.N)) }
func (s *Steal) readWire(r *rbuf)           { s.N = r.int() }

func (s *Stolen) appendWire(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s.Slots)))
	for _, slot := range s.Slots {
		b = binary.AppendUvarint(b, uint64(slot))
	}
	return b
}

func (s *Stolen) readWire(r *rbuf) {
	s.Slots = list[int](r, 1)
	for i := range s.Slots {
		s.Slots[i] = int(r.uvarint())
	}
}

func (a *ResultAck) appendWire(b []byte) []byte { return appendStrings(b, a.RunIDs) }
func (a *ResultAck) readWire(r *rbuf)           { a.RunIDs = r.strs() }

func (t *TelemetryBatch) appendWire(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(t.Spans)))
	for i := range t.Spans {
		d := &t.Spans[i]
		b = appendInt(appendInt(b, d.ID), d.Parent)
		b = appendTime(appendTime(appendString(b, d.Name), d.Start), d.End)
		b = appendAttrs(b, d.Attrs)
	}
	b = binary.AppendUvarint(b, uint64(len(t.Events)))
	for i := range t.Events {
		ev := &t.Events[i]
		b = append(appendTime(appendInt(b, ev.Seq), ev.Time), byte(ev.Level))
		b = appendInt(appendString(appendString(b, ev.Type), ev.Msg), ev.Span)
		b = appendAttrs(b, ev.Attrs)
	}
	b = appendBool(b, t.Metrics != nil)
	if t.Metrics != nil {
		b = appendMetrics(b, t.Metrics)
	}
	b = appendInt(appendInt(b, t.DroppedSpans), t.DroppedEvents)
	return appendInt(appendInt(b, t.SentUnixNano), t.RTTNanos)
}

func (t *TelemetryBatch) readWire(r *rbuf) {
	t.Spans = list[telemetry.SpanData](r, 8)
	for i := range t.Spans {
		d := &t.Spans[i]
		d.ID, d.Parent = r.varint(), r.varint()
		d.Name, d.Start, d.End = r.str(), r.time(), r.time()
		d.Attrs = r.attrs()
	}
	t.Events = list[eventlog.Event](r, 8)
	for i := range t.Events {
		ev := &t.Events[i]
		ev.Seq, ev.Time = r.varint(), r.time()
		if lv := r.take(1); len(lv) == 1 {
			if lv[0] > byte(eventlog.Error) {
				r.fail("unknown event level")
			}
			ev.Level = eventlog.Level(lv[0])
		}
		ev.Type, ev.Msg, ev.Span = r.str(), r.str(), r.varint()
		ev.Attrs = r.attrs()
	}
	if r.bool() {
		t.Metrics = readMetrics(r)
	}
	t.DroppedSpans, t.DroppedEvents = r.varint(), r.varint()
	t.SentUnixNano, t.RTTNanos = r.varint(), r.varint()
}

func appendMetrics(b []byte, m *telemetry.MetricsSnapshot) []byte {
	b = binary.AppendUvarint(b, uint64(len(m.Counters)))
	for _, c := range m.Counters {
		b = appendInt(appendMap(appendString(b, c.Name), c.Labels), c.Value)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Gauges)))
	for _, g := range m.Gauges {
		b = appendFloat(appendMap(appendString(b, g.Name), g.Labels), g.Value)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Histograms)))
	for _, h := range m.Histograms {
		b = appendMap(appendString(b, h.Name), h.Labels)
		b = binary.AppendUvarint(b, uint64(len(h.Bounds)))
		for _, f := range h.Bounds {
			b = appendFloat(b, f)
		}
		b = binary.AppendUvarint(b, uint64(len(h.Counts)))
		for _, c := range h.Counts {
			b = binary.AppendUvarint(b, c)
		}
		b = appendFloat(binary.AppendUvarint(b, h.Inf), h.Sum)
		b = binary.AppendUvarint(b, h.Count)
	}
	return b
}

func readMetrics(r *rbuf) *telemetry.MetricsSnapshot {
	m := &telemetry.MetricsSnapshot{Counters: list[telemetry.CounterSnap](r, 3)}
	for i := range m.Counters {
		c := &m.Counters[i]
		c.Name, c.Labels, c.Value = r.str(), r.strMap(), r.varint()
	}
	m.Gauges = list[telemetry.GaugeSnap](r, 10)
	for i := range m.Gauges {
		g := &m.Gauges[i]
		g.Name, g.Labels, g.Value = r.str(), r.strMap(), r.float()
	}
	m.Histograms = list[telemetry.HistogramSnap](r, 14)
	for i := range m.Histograms {
		h := &m.Histograms[i]
		h.Name, h.Labels = r.str(), r.strMap()
		h.Bounds = list[float64](r, 8)
		for j := range h.Bounds {
			h.Bounds[j] = r.float()
		}
		h.Counts = list[uint64](r, 1)
		for j := range h.Counts {
			h.Counts[j] = r.uvarint()
		}
		h.Inf, h.Sum, h.Count = r.uvarint(), r.float(), r.uvarint()
	}
	return m
}
