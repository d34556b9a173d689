package savanna

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"

	"fairflow/internal/cas"
	"fairflow/internal/cheetah"
	"fairflow/internal/provenance"
	"fairflow/internal/resilience"
	"fairflow/internal/telemetry"
)

func memoCampaign(t *testing.T, points int) *cheetah.Manifest {
	t.Helper()
	p, err := cheetah.IntRange("n", cheetah.Application, 1, points, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cheetah.BuildManifest(cheetah.Campaign{
		Name: "memo-campaign", App: "app", Account: "ACC",
		Groups: []cheetah.SweepGroup{{
			Name: "g", Nodes: 1, WalltimeMinutes: 1,
			Sweeps: []cheetah.Sweep{{Name: "s", Parameters: []cheetah.Parameter{p}}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newMemo(t *testing.T, dir string) *Memo {
	t.Helper()
	store, err := cas.Open(filepath.Join(dir, "cas"))
	if err != nil {
		t.Fatal(err)
	}
	cache, err := cas.OpenActionCache(filepath.Join(dir, "cas", "actions.json"), store)
	if err != nil {
		t.Fatal(err)
	}
	return &Memo{Cache: cache, ComponentDigest: "sha256:model-v1"}
}

// TestMemoSkipsWarmRuns: a second RunCampaign over the same campaign executes
// nothing — every run is a cache hit, reported Cached and succeeded.
func TestMemoSkipsWarmRuns(t *testing.T) {
	dir := t.TempDir()
	m := memoCampaign(t, 8)
	var executions int64
	reg := NewFuncRegistry("app")
	reg.Register("app", func(map[string]string) error {
		atomic.AddInt64(&executions, 1)
		return nil
	})
	memo := newMemo(t, dir)
	eng := &LocalEngine{Executor: reg, Workers: 4, Memo: memo}

	cold, _, err := eng.RunCampaign(context.Background(), m.Campaign.Name, m.Runs)
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&executions); got != 8 {
		t.Fatalf("cold run executed %d, want 8", got)
	}
	for _, r := range cold {
		if r.Cached || r.Status != provenance.StatusSucceeded {
			t.Fatalf("cold result %+v", r)
		}
	}

	warm, _, err := eng.RunCampaign(context.Background(), m.Campaign.Name, m.Runs)
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&executions); got != 8 {
		t.Fatalf("warm run executed %d more runs, want 0", got-8)
	}
	for _, r := range warm {
		if !r.Cached || r.Status != provenance.StatusSucceeded {
			t.Fatalf("warm result %+v", r)
		}
	}
}

// TestMemoInvalidatedByComponentAndParams: changing the component digest
// re-executes every run, and a sweep point not seen before executes while
// the ones seen stay cached.
func TestMemoInvalidatedByComponentAndParams(t *testing.T) {
	dir := t.TempDir()
	m := memoCampaign(t, 4)
	var executions int64
	reg := NewFuncRegistry("app")
	reg.Register("app", func(map[string]string) error {
		atomic.AddInt64(&executions, 1)
		return nil
	})
	memo := newMemo(t, dir)
	eng := &LocalEngine{Executor: reg, Workers: 2, Memo: memo}
	if _, _, err := eng.RunCampaign(context.Background(), m.Campaign.Name, m.Runs); err != nil {
		t.Fatal(err)
	}

	memo.ComponentDigest = "sha256:model-v2" // regenerated workflow
	if _, _, err := eng.RunCampaign(context.Background(), m.Campaign.Name, m.Runs); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&executions); got != 8 {
		t.Fatalf("component change executed %d total, want 8", got)
	}

	wider := memoCampaign(t, 6) // points 1-4 as before, then 5 and 6
	if _, _, err := eng.RunCampaign(context.Background(), wider.Campaign.Name, wider.Runs); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&executions); got != 10 {
		t.Fatalf("two new points executed %d total, want 10", got)
	}
}

// TestMemoFailedRunsAreNotCached: a failed run must stay dirty — the next
// campaign re-run retries it.
func TestMemoFailedRunsAreNotCached(t *testing.T) {
	dir := t.TempDir()
	m := memoCampaign(t, 3)
	var executions int64
	reg := NewFuncRegistry("app")
	reg.Register("app", func(params map[string]string) error {
		atomic.AddInt64(&executions, 1)
		if params["n"] == "2" {
			return fmt.Errorf("transient failure")
		}
		return nil
	})
	eng := &LocalEngine{Executor: reg, Workers: 1, Memo: newMemo(t, dir)}
	if _, _, err := eng.RunCampaign(context.Background(), m.Campaign.Name, m.Runs); err != nil {
		t.Fatal(err)
	}
	res, _, err := eng.RunCampaign(context.Background(), m.Campaign.Name, m.Runs)
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&executions); got != 4 { // 3 cold + 1 retried failure
		t.Fatalf("executed %d total, want 4", got)
	}
	for _, r := range res {
		if r.Run.Params["n"] == "2" {
			if r.Cached || r.Status != provenance.StatusFailed {
				t.Fatalf("failed point result %+v", r)
			}
		} else if !r.Cached {
			t.Fatalf("succeeded point %s not cached", r.Run.ID)
		}
	}
}

// TestMemoCollectRestoreRoundTrip: outputs collected into the store on the
// cold run are rematerialized byte-identically by Restore on the warm run.
func TestMemoCollectRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	outDir := filepath.Join(dir, "outputs")
	m := memoCampaign(t, 3)
	reg := NewFuncRegistry("app")
	reg.Register("app", func(params map[string]string) error {
		return os.WriteFile(filepath.Join(outDir, "result-"+params["n"]+".txt"),
			[]byte("result for n="+params["n"]+"\n"), 0o644)
	})
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	memo := newMemo(t, dir)
	outPath := func(run cheetah.Run) string {
		return filepath.Join(outDir, "result-"+run.Params["n"]+".txt")
	}
	memo.Collect = func(run cheetah.Run) (map[string]string, error) {
		return map[string]string{"result": outPath(run)}, nil
	}
	restored := 0
	memo.Restore = func(run cheetah.Run, outputs map[string]cas.Digest) error {
		restored++
		return memo.Cache.Store().Materialize(outputs["result"], outPath(run))
	}
	prov := provenance.NewStore()
	eng := &LocalEngine{Executor: reg, Workers: 1, Memo: memo, Prov: prov}
	if _, _, err := eng.RunCampaign(context.Background(), m.Campaign.Name, m.Runs); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(outDir, "result-2.txt"))
	if err != nil {
		t.Fatal(err)
	}

	// Wipe the outputs; the warm run must rebuild them from the store.
	if err := os.RemoveAll(outDir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	res, _, err := eng.RunCampaign(context.Background(), m.Campaign.Name, m.Runs)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 3 {
		t.Fatalf("restored %d runs, want 3", restored)
	}
	for _, r := range res {
		if !r.Cached {
			t.Fatalf("run %s re-executed", r.Run.ID)
		}
	}
	got, err := os.ReadFile(filepath.Join(outDir, "result-2.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("restored output differs from original")
	}

	// Provenance: cold records carry the component and output digests; warm
	// records are annotated cached with the same digests.
	recs := prov.Select(provenance.Query{CampaignID: m.Campaign.Name})
	if len(recs) != 6 {
		t.Fatalf("provenance records = %d, want 6", len(recs))
	}
	for i, rec := range recs {
		if rec.Inputs["component"] != "sha256:model-v1" || len(rec.Inputs) != 1 {
			t.Fatalf("record %d missing input digests: %v", i, rec.Inputs)
		}
		if rec.Outputs["result"] == "" || !cas.Digest(rec.Outputs["result"]).Valid() {
			t.Fatalf("record %d missing output digest: %v", i, rec.Outputs)
		}
	}
	cachedCount := 0
	for _, rec := range recs {
		for _, a := range rec.Annotations {
			if a.Key == "cached" && a.Value == "true" {
				cachedCount++
			}
		}
	}
	if cachedCount != 3 {
		t.Fatalf("cached annotations = %d, want 3", cachedCount)
	}
}

// TestMemoMissingObjectIsAMiss: a cached run whose output object is gone
// from the store re-executes, with or without a Restore. With one, the
// restore's link is the only existence check Lookup makes, so it must fail
// the hit: the run executes once, journals success (not cached), carries no
// cached annotation, and counts as an action-cache miss.
func TestMemoMissingObjectIsAMiss(t *testing.T) {
	for _, restore := range []bool{true, false} {
		t.Run(fmt.Sprintf("restore=%v", restore), func(t *testing.T) {
			dir := t.TempDir()
			m := memoCampaign(t, 1)
			run := m.Runs[0]
			out := filepath.Join(dir, "result.txt")
			var executions int64
			reg := NewFuncRegistry("app")
			reg.Register("app", func(map[string]string) error {
				atomic.AddInt64(&executions, 1)
				return os.WriteFile(out, []byte("result\n"), 0o644)
			})
			memo := newMemo(t, dir)
			memo.Collect = func(cheetah.Run) (map[string]string, error) {
				return map[string]string{"result": out}, nil
			}
			if err := os.WriteFile(out, []byte("result\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := memo.Record(run); err != nil {
				t.Fatal(err)
			}
			store := memo.Cache.Store()
			if removed, _, err := store.GC(nil); err != nil || removed != 1 {
				t.Fatalf("GC removed %d objects (%v), want 1", removed, err)
			}
			if restore {
				memo.Restore = func(_ cheetah.Run, outputs map[string]cas.Digest) error {
					return store.Materialize(outputs["result"], filepath.Join(dir, "restored.txt"))
				}
			}
			metrics := telemetry.NewRegistry()
			memo.Cache.SetMetrics(metrics)
			journal, err := resilience.OpenJournal(filepath.Join(dir, "attempts.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer journal.Close()
			prov := provenance.NewStore()
			eng := &LocalEngine{Executor: reg, Workers: 1, Memo: memo, Prov: prov,
				Resilience: &resilience.Config{Journal: journal}}
			res, _, err := eng.RunCampaign(context.Background(), m.Campaign.Name, m.Runs)
			if err != nil {
				t.Fatal(err)
			}
			if got := atomic.LoadInt64(&executions); got != 1 || res[0].Cached {
				t.Fatalf("executed %d times, cached %v; want 1 execution", got, res[0].Cached)
			}
			recs, err := resilience.ReadJournalFile(journal.Path())
			if err != nil {
				t.Fatal(err)
			}
			var events []string
			for _, r := range recs {
				if r.Event == resilience.AttemptSuccess || r.Event == resilience.AttemptCached {
					events = append(events, r.Event)
				}
			}
			if len(events) != 1 || events[0] != resilience.AttemptSuccess {
				t.Fatalf("journal terminal records %v, want [success]", events)
			}
			provRecs := prov.Select(provenance.Query{})
			if len(provRecs) != 1 {
				t.Fatalf("provenance records = %d, want 1", len(provRecs))
			}
			for _, rec := range provRecs {
				for _, a := range rec.Annotations {
					if a.Key == "cached" {
						t.Fatalf("provenance record %s annotated cached", rec.ID)
					}
				}
			}
			if hits, misses := metrics.Counter("cas.action_hits_total").Value(),
				metrics.Counter("cas.action_misses_total").Value(); hits != 0 || misses != 1 {
				t.Fatalf("action cache hits %v, misses %v; want 0 and 1", hits, misses)
			}
		})
	}
}

// TestMemoRecipeDigestPinned: a run's memo key, as recorded by the code that
// wrote the action caches already on disk — the digests were computed when
// a memo could also name input digests, and one with none keys as it did
// then. Run parameters named like the memo's own keys must not shadow them.
func TestMemoRecipeDigestPinned(t *testing.T) {
	memos := []*Memo{
		{},
		{ComponentDigest: "sha256:model-v1"},
	}
	runs := []cheetah.Run{
		{ID: "g/s/run-0"},
		{ID: "g/s/run-1", Params: map[string]string{"x": "1", "y": "two", "component": "c", "input:ref": "shadow"}},
	}
	want := []cas.Digest{
		"sha256:f4b1c2ca118cf7b10dc896d16dfc9f32e00ce0cec46f201f63a11ea76291580e",
		"sha256:7c4252ad8a9cf511a91cba3bb5a88a87ef54952e231dd4d6f34df07ceac32185",
		"sha256:5722829be68f767bb7e95bc1ffb399121f918b21778db6598d639f5c5a74c556",
		"sha256:20c60dbc429447a27d09e35d9ebe476d168d5e76784fbf27921ea03a19758013",
	}
	for i, m := range memos {
		for j, run := range runs {
			if got := m.recipeDigest(run); got != want[i*len(runs)+j] {
				t.Errorf("memo %d, run %d: key %s, want %s", i, j, got, want[i*len(runs)+j])
			}
		}
	}
}

// BenchmarkMemoLookupHit prices one warm hit as the engines pay it: the
// recipe digest, the action-cache read and a Restore that materializes the
// output into an existing directory — its link is the existence check. The
// hits cycle over memoBenchRuns recorded runs with distinct objects, so no
// object nears a filesystem's hard-link cap (65,000 on ext4, past which
// Materialize copies) at any -benchtime a run can reach.
func BenchmarkMemoLookupHit(b *testing.B) {
	const memoBenchRuns = 128
	dir := b.TempDir()
	store, err := cas.Open(filepath.Join(dir, "cas"))
	if err != nil {
		b.Fatal(err)
	}
	cache, err := cas.OpenActionCache(filepath.Join(dir, "cas", "actions.json"), store)
	if err != nil {
		b.Fatal(err)
	}
	memo := &Memo{Cache: cache, ComponentDigest: "sha256:model-v1",
		Collect: func(run cheetah.Run) (map[string]string, error) {
			return map[string]string{"out": filepath.Join(dir, run.Params["seed"]+".bin")}, nil
		}}
	runs := make([]cheetah.Run, memoBenchRuns)
	for k := range runs {
		seed := strconv.Itoa(k)
		out := bytes.Repeat([]byte{7}, 4096)
		copy(out, seed)
		if err := os.WriteFile(filepath.Join(dir, seed+".bin"), out, 0o644); err != nil {
			b.Fatal(err)
		}
		runs[k] = cheetah.Run{ID: "g/s/run-" + seed, Params: map[string]string{"alpha": "0.5", "n": "17", "seed": seed}}
		if _, err := memo.Record(runs[k]); err != nil {
			b.Fatal(err)
		}
	}
	restoreDir := filepath.Join(dir, "restore")
	if err := os.Mkdir(restoreDir, 0o755); err != nil {
		b.Fatal(err)
	}
	i := 0
	memo.Restore = func(_ cheetah.Run, outputs map[string]cas.Digest) error {
		i++
		return store.Materialize(outputs["out"], filepath.Join(restoreDir, fmt.Sprintf("run-%d.out", i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, ok := memo.Lookup(runs[n%memoBenchRuns]); !ok {
			b.Fatal("miss on a recorded run")
		}
	}
}
