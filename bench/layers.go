package bench

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"fairflow/internal/cas"
	"fairflow/internal/cheetah"
	"fairflow/internal/provenance"
	"fairflow/internal/remote"
	"fairflow/internal/resilience"
	"fairflow/internal/savanna"
	"fairflow/internal/stream"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// wireSchema is remote.v1's layout (internal/remote/protocol.go msgSchema,
// which is unexported): the record every control message travels in.
var wireSchema = &stream.Schema{
	Name: "remote.v1",
	Fields: []stream.Field{
		{Name: "op", Type: stream.TString},
		{Name: "worker", Type: stream.TString},
		{Name: "lease", Type: stream.TInt64},
		{Name: "epoch", Type: stream.TInt64},
		{Name: "body", Type: stream.TBytes},
	},
}

// shape carries the argument shapes the campaign used into the layer
// replay, so unit costs are measured on what the engines actually passed.
type shape struct {
	remote     bool // records name a worker; messages carry an epoch
	traced     bool // the coordinator traces, so assignments carry a trace map
	assignRuns int  // mean runs per assign message seen on the wire
	casN       int  // objects/actions a memo campaign grows its store to
}

// replay is the layer replay: each unit calls one layer's public function
// in isolation, one benchmark span per timed call, and reports the median.
type replay struct {
	clk   *clock
	rec   *recorder
	dir   string // tmpfs scratch
	iters int
	limit time.Duration // per-unit time cap
	units map[string]Summary
	err   error // first failure; later units are skipped
}

// unit times fn up to iters times (or until limit has passed), one span
// per call; each call performs batch operations — batching is how
// nanosecond-scale operations outgrow the clock's own cost. The stored
// value is per operation, in the metric's declared unit.
func (r *replay) unit(metric string, iters, batch int, limit time.Duration, fn func(i int) error) {
	if r.err != nil {
		return
	}
	div := 1e3 // ns → us
	if perLayerUnit(metric) == "ns" {
		div = 1
	}
	samples := make([]float64, 0, iters)
	begin := r.clk.now()
	for i := 0; i < iters; i++ {
		t0 := r.clk.now()
		err := fn(i)
		t1 := r.clk.now()
		if err != nil {
			r.err = fmt.Errorf("layer replay %s: %w", metric, err)
			return
		}
		r.rec.add(metric, laneReplay, t0, t1)
		samples = append(samples, float64(t1-t0)/float64(batch)/div)
		if time.Duration(t1-begin) > limit {
			break
		}
	}
	r.units[metric] = summarize(samples)
}

// runLayerReplay measures every unit cost. diskDir is a directory on the
// checkout's real disk for the *_disk_us units.
func runLayerReplay(clk *clock, rec *recorder, dir, diskDir string, sh shape, quick bool) (map[string]Summary, error) {
	r := &replay{clk: clk, rec: rec, dir: dir, iters: 2000, limit: 300 * time.Millisecond, units: map[string]Summary{}}
	casLimit := 1500 * time.Millisecond
	if quick {
		r.iters, r.limit, casLimit = 50, 20*time.Millisecond, 50*time.Millisecond
	}
	r.cheetahUnits(diskDir)
	r.journalUnits(diskDir, sh)
	r.inMemoryUnits(sh)
	r.wireUnits(sh)
	r.casUnits(diskDir, sh, casLimit)
	return r.units, r.err
}

func (r *replay) fail(err error) bool {
	if err != nil && r.err == nil {
		r.err = err
	}
	return r.err != nil
}

// smallManifest materialises a 64-run campaign directory under root.
func smallManifest(root string) (dir string, runs []cheetah.Run, err error) {
	in, err := GenerateInputs(LocalDurable, 64, 1)
	if err != nil {
		return "", nil, err
	}
	dir, err = in.Manifest.Materialize(root)
	return dir, in.Runs, err
}

func (r *replay) cheetahUnits(diskDir string) {
	for _, u := range []struct{ metric, root string }{
		{"cheetah.set_run_status_us", filepath.Join(r.dir, "status")},
		{"cheetah.set_run_status_disk_us", filepath.Join(diskDir, "status")},
	} {
		dir, runs, err := smallManifest(u.root)
		if r.fail(err) {
			return
		}
		r.unit(u.metric, r.iters, 1, r.limit, func(i int) error {
			return cheetah.SetRunStatus(dir, runs[i%len(runs)].ID, cheetah.RunSucceeded)
		})
	}
}

func (r *replay) journalUnits(diskDir string, sh shape) {
	rec := resilience.AttemptRecord{Run: "g/s/run-00042", Point: "i=42", Attempt: 1, Event: resilience.AttemptSuccess}
	if sh.remote {
		rec.Worker = "w0"
	}
	for _, u := range []struct {
		metric   string
		dir      string
		autoSync int
	}{
		{"resilience.journal_append_nosync_us", r.dir, 0},
		{"resilience.journal_append_sync32_us", r.dir, 32},
		{"resilience.journal_append_sync1_us", r.dir, 1},
		{"resilience.journal_append_sync1_disk_us", diskDir, 1},
	} {
		j, err := resilience.OpenJournal(filepath.Join(u.dir, "unit-"+strconv.Itoa(u.autoSync)+".jsonl"))
		if r.fail(err) {
			return
		}
		j.SetAutoSync(u.autoSync)
		r.unit(u.metric, r.iters, 1, r.limit, func(int) error {
			rec.Time = time.Now()
			return j.Append(rec)
		})
		if r.fail(j.Close()) {
			return
		}
	}
}

// inMemoryUnits covers the layers that touch no file: the resilience
// controller, provenance, spans, instruments, events, message bodies.
func (r *replay) inMemoryUnits(sh shape) {
	const batch = 100
	rc := resilience.NewController(resilience.Config{})
	r.unit("resilience.controller_us_per_run", r.iters, batch, r.limit, func(int) error {
		for k := 0; k < batch; k++ {
			q := rc.Quarantine()
			q.Allow("i=42")
			q.NoteSuccess("i=42")
			rc.NoteOutcome(resilience.OutcomeSucceeded)
		}
		return nil
	})

	prov := provenance.NewStore()
	now := time.Now()
	r.unit("provenance.append_us", r.iters, 1, r.limit, func(i int) error {
		return prov.Append(provenance.Record{
			ID:         "bench/g/s/run-00042#" + strconv.Itoa(i),
			Component:  "savanna-run",
			Start:      now,
			End:        now,
			Status:     provenance.StatusSucceeded,
			CampaignID: "bench",
			SweepPoint: map[string]string{"i": "42"},
		})
	})

	tracer := telemetry.NewTracer()
	ctx, root := tracer.Start(context.Background(), "savanna.campaign")
	r.unit("telemetry.span_start_end_us", r.iters, 1, r.limit, func(int) error {
		_, sp := tracer.Start(ctx, "savanna.run", telemetry.String("run", "g/s/run-00042"))
		sp.End(telemetry.Bool("cached", false), telemetry.String("status", "succeeded"), telemetry.Int("attempts", 1))
		return nil
	})
	root.End()

	reg := telemetry.NewRegistry()
	counter, hist := reg.Counter("bench.unit_total"), reg.Histogram("bench.unit_seconds", nil)
	r.unit("telemetry.counter_inc_ns", r.iters, 10*batch, r.limit, func(int) error {
		for k := 0; k < 10*batch; k++ {
			counter.Inc()
		}
		return nil
	})
	r.unit("telemetry.histogram_observe_ns", r.iters, 10*batch, r.limit, func(int) error {
		for k := 0; k < 10*batch; k++ {
			hist.Observe(1e-4)
		}
		return nil
	})

	log := eventlog.NewLog()
	r.unit("eventlog.append_us", r.iters, 1, r.limit, func(int) error {
		log.Append(eventlog.Info, eventlog.RunSucceeded, "", 7,
			telemetry.String("run", "g/s/run-00042"), telemetry.String("worker", "w0"))
		return nil
	})

	assign, outcome := sampleAssignment(sh), sampleOutcome()
	var assignJSON, outcomeJSON []byte
	r.unit("remote.body_marshal_assign_us", r.iters, 1, r.limit, func(int) (err error) {
		assignJSON, err = json.Marshal(assign)
		return err
	})
	r.unit("remote.body_unmarshal_assign_us", r.iters, 1, r.limit, func(int) error {
		var a remote.Assignment
		return json.Unmarshal(assignJSON, &a)
	})
	r.unit("remote.body_marshal_outcome_us", r.iters, 1, r.limit, func(int) (err error) {
		outcomeJSON, err = json.Marshal(outcome)
		return err
	})
	r.unit("remote.body_unmarshal_outcome_us", r.iters, 1, r.limit, func(int) error {
		var o remote.Outcome
		return json.Unmarshal(outcomeJSON, &o)
	})
}

// sampleAssignment is an assign body of the size the campaign sent: the
// mean runs per message, with the dispatch-span trace map when the
// coordinator traces.
func sampleAssignment(sh shape) remote.Assignment {
	a := remote.Assignment{}
	if sh.traced {
		a.Trace = map[string]string{}
	}
	for i := 0; i < sh.assignRuns; i++ {
		id := fmt.Sprintf("g/s/run-%05d", i)
		a.Runs = append(a.Runs, cheetah.Run{ID: id, Group: "g", Sweep: "s", Index: i, Params: map[string]string{"i": strconv.Itoa(i)}})
		if sh.traced {
			a.Trace[id] = fmt.Sprintf("00-0123456789abcdef0123456789abcdef-%016x-01", i+1)
		}
	}
	return a
}

func sampleOutcome() remote.Outcome {
	return remote.Outcome{RunID: "g/s/run-00042", OK: true, Seconds: 1.25e-07}
}

// wireRecord builds one remote.v1 record.
func wireRecord(op string, body any, sh shape) (stream.Item, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return stream.Item{}, err
	}
	epoch := int64(0)
	if sh.remote && sh.traced { // Coordinate fences an epoch; the bare engine does not
		epoch = 1
	}
	rec, err := stream.NewRecord(wireSchema, op, "w0", int64(1), epoch, payload)
	return stream.Item{Seq: 1, Time: time.Now(), Payload: rec}, err
}

// wireUnits measures FBS encode/decode of assign- and result-shaped
// records into memory, and one record's round trip over 127.0.0.1.
func (r *replay) wireUnits(sh shape) {
	for _, u := range []struct {
		kind string
		op   string
		body any
	}{
		{"assign", remote.OpAssign, sampleAssignment(sh)},
		{"outcome", remote.OpResult, sampleOutcome()},
	} {
		item, err := wireRecord(u.op, u.body, sh)
		if r.fail(err) {
			return
		}
		var buf bytes.Buffer
		enc, err := stream.NewEncoder(&buf, wireSchema)
		if r.fail(err) {
			return
		}
		encode := func(int) error {
			if err := enc.Encode(item); err != nil {
				return err
			}
			return enc.Flush()
		}
		if r.fail(encode(0)) { // the stream header goes out with the first record
			return
		}
		header := buf.Len()
		r.unit("stream.fbs_encode_"+u.kind+"_us", r.iters, 1, r.limit, func(i int) error {
			buf.Truncate(header)
			return encode(i)
		})
		// One stream holding iters+1 records: the first decode also parses
		// the header, so it is taken outside the timed calls.
		buf.Truncate(header)
		for i := 0; i < r.iters; i++ {
			if r.fail(encode(i)) {
				return
			}
		}
		dec := stream.NewDecoder(bytes.NewReader(buf.Bytes()))
		if _, err := dec.Decode(); r.fail(err) {
			return
		}
		r.unit("stream.fbs_decode_"+u.kind+"_us", r.iters-1, 1, r.limit, func(int) error {
			_, err := dec.Decode()
			return err
		})
	}
	r.loopbackUnit(sh)
}

// loopbackUnit sends one result-shaped record to an echo peer over
// 127.0.0.1 and waits for it to come back: encode, flush, two socket
// crossings, decode — on both sides.
func (r *replay) loopbackUnit(sh shape) {
	if r.err != nil {
		return
	}
	item, err := wireRecord(remote.OpResult, sampleOutcome(), sh)
	if r.fail(err) {
		return
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if r.fail(err) {
		return
	}
	defer ln.Close()
	echoed := make(chan error, 1) // the echo goroutine's one result
	go func() {
		c, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		enc, err := stream.NewEncoder(c, wireSchema)
		if err != nil {
			echoed <- err
			return
		}
		dec := stream.NewDecoder(c)
		for {
			it, err := dec.Decode()
			if err != nil {
				if errors.Is(err, io.EOF) {
					err = nil
				}
				echoed <- err
				return
			}
			if err := enc.Encode(it); err != nil {
				echoed <- err
				return
			}
			if err := enc.Flush(); err != nil {
				echoed <- err
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if r.fail(err) {
		return
	}
	enc, err := stream.NewEncoder(c, wireSchema)
	if r.fail(err) {
		c.Close()
		return
	}
	dec := stream.NewDecoder(c)
	roundTrip := func(int) error {
		if err := enc.Encode(item); err != nil {
			return err
		}
		if err := enc.Flush(); err != nil {
			return err
		}
		_, err := dec.Decode()
		return err
	}
	if !r.fail(roundTrip(0)) { // headers cross with the first record
		r.unit("stream.loopback_roundtrip_us", r.iters, 1, r.limit, roundTrip)
	}
	c.Close()
	r.fail(<-echoed)
}

// casUnits replays the memo workloads' use of cas and savanna.Memo. Store
// and action cache persist their whole index on every new entry, so a
// call's cost grows with what is already stored: each unit starts empty
// and runs casN calls (the campaign's own trajectory), and the median is
// the cost near the campaign's midpoint.
func (r *replay) casUnits(diskDir string, sh shape, limit time.Duration) {
	if r.err != nil {
		return
	}
	n := sh.casN
	inDir := filepath.Join(r.dir, "cas-in")
	if r.fail(os.MkdirAll(inDir, 0o755)) {
		return
	}
	files := make([]string, n)
	runs := make([]cheetah.Run, n)
	block := make([]byte, outputSize)
	for i := range files {
		binary.LittleEndian.PutUint64(block, uint64(i)+1)
		files[i] = outPath(inDir, i)
		if r.fail(os.WriteFile(files[i], block, 0o644)) {
			return
		}
		runs[i] = cheetah.Run{ID: fmt.Sprintf("g/s/run-%05d", i), Index: i, Params: map[string]string{"i": strconv.Itoa(i)}}
	}

	store, err := cas.Open(filepath.Join(r.dir, "cas-unit"))
	if r.fail(err) {
		return
	}
	var digests []cas.Digest
	r.unit("cas.put_file_4k_us", n, 1, limit, func(i int) error {
		d, _, err := store.PutFile(files[i])
		digests = append(digests, d)
		return err
	})
	r.unit("cas.hash_file_4k_us", n, 1, r.limit, func(i int) error {
		_, _, err := cas.HashFile(files[i])
		return err
	})
	cache, err := cas.OpenActionCache(filepath.Join(r.dir, "cas-unit", "actions.json"), store)
	if r.fail(err) || len(digests) == 0 {
		return
	}
	recipes := make([]cas.Digest, n)
	for i := range recipes {
		recipes[i] = cas.Recipe{Kind: "campaignbench/unit@v1", Params: map[string]string{"i": strconv.Itoa(i)}}.Digest()
	}
	puts := 0
	r.unit("cas.action_put_us", n, 1, limit, func(i int) error {
		puts++
		return cache.Put(recipes[i], cas.ActionResult{Outputs: map[string]cas.Digest{"out": digests[i%len(digests)]}})
	})
	r.unit("cas.action_get_us", r.iters, 1, r.limit, func(i int) error {
		if _, ok := cache.Get(recipes[i%puts]); !ok {
			return errors.New("action cache miss on a stored recipe")
		}
		return nil
	})
	matDir := filepath.Join(r.dir, "cas-mat")
	r.unit("cas.materialize_us", r.iters, 1, r.limit, func(i int) error {
		return store.Materialize(digests[i%len(digests)], outPath(matDir, i))
	})

	memoStore, err := cas.Open(filepath.Join(r.dir, "memo-unit"))
	if r.fail(err) {
		return
	}
	memoCache, err := cas.OpenActionCache(filepath.Join(r.dir, "memo-unit", "actions.json"), memoStore)
	if r.fail(err) {
		return
	}
	memo := &savanna.Memo{
		Cache:           memoCache,
		ComponentDigest: "campaignbench-component",
		Collect: func(run cheetah.Run) (map[string]string, error) {
			return map[string]string{"out": files[run.Index]}, nil
		},
	}
	recorded := 0
	r.unit("savanna.memo_record_us", n, 1, limit, func(i int) error {
		recorded++
		_, err := memo.Record(runs[i])
		return err
	})
	r.unit("savanna.memo_lookup_hit_us", r.iters, 1, r.limit, func(i int) error {
		if _, ok := memo.Lookup(runs[i%recorded]); !ok {
			return errors.New("memo miss on a recorded run")
		}
		return nil
	})

	diskStore, err := cas.Open(filepath.Join(diskDir, "cas-unit"))
	if r.fail(err) {
		return
	}
	r.unit("cas.put_file_4k_disk_us", min(n, 200), 1, r.limit, func(i int) error {
		_, _, err := diskStore.PutFile(files[i])
		return err
	})
}
