package bench

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// Trace lanes (Chrome trace_event thread ids).
const (
	laneCampaign = iota
	laneSlot0    // payload spans, one lane per slot/worker from here
	laneSlot1
	laneWireC2W
	laneWireW2C
	laneEvents
	laneSeams
	laneReplay
)

var laneNames = []string{"campaign", "slot 0", "slot 1", "wire coordinator→worker", "wire worker→coordinator", "events", "seams", "layer replay"}

// span is one benchmark-side span: a wrapped call into the program.
type span struct {
	name       string
	lane       int32
	id, parent int32
	start, end int64 // ns on the recorder's clock
}

// recorder is the benchmark's own span recorder — deliberately not
// internal/telemetry, which is under test. Spans stay in memory until the
// workload ends. A nil *recorder is tracing off: every method is a no-op.
type recorder struct {
	clk      *clock
	campaign string // shared id of every span in the file

	mu     sync.Mutex
	spans  []span
	nextID int32
	parent int32 // span that new spans hang under
}

func newRecorder(clk *clock, campaign string) *recorder {
	return &recorder{clk: clk, campaign: campaign}
}

// reserve allocates a span id and makes it the parent of spans added until
// the next reserve; finish files the reserved span itself.
func (r *recorder) reserve() int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	r.parent = r.nextID
	return r.nextID
}

func (r *recorder) finish(id int32, name string, start, end int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, lane: laneCampaign, id: id, start: start, end: end})
	r.mu.Unlock()
}

// add files one finished span under the current parent.
func (r *recorder) add(name string, lane int, start, end int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.nextID++
	r.spans = append(r.spans, span{name: name, lane: int32(lane), id: r.nextID, parent: r.parent, start: start, end: end})
	r.mu.Unlock()
}

// now reads the recorder's clock (0 when tracing is off, so wrappers can
// stamp unconditionally).
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return r.clk.now()
}

// addStamps files one payload span per stamped Execute call.
func (r *recorder) addStamps(st *stamps, lane int) {
	if r == nil {
		return
	}
	for i, n := 0, st.calls(); i < n; i++ {
		r.add("payload", lane, st.entry[i], st.exit[i])
	}
}

// writeChrome writes the spans as Chrome trace_event JSON ("X" complete
// events, microsecond timestamps), loadable in chrome://tracing or Perfetto.
func (r *recorder) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for lane, name := range laneNames {
		if lane > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n"+`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%s}}`, lane, strconv.Quote(name))
	}
	r.mu.Lock()
	for _, s := range r.spans {
		fmt.Fprintf(w, ",\n"+`{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"campaign":%s}}`,
			strconv.Quote(s.name), s.lane, micros(s.start), micros(s.end-s.start), s.id, s.parent, strconv.Quote(r.campaign))
	}
	r.mu.Unlock()
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
