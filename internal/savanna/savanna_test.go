package savanna

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairflow/internal/cheetah"
	"fairflow/internal/provenance"
	"fairflow/internal/resilience"
)

func testCampaign(n int) cheetah.Campaign {
	values := make([]string, n)
	for i := range values {
		values[i] = strconv.Itoa(i)
	}
	return cheetah.Campaign{
		Name: "test",
		App:  "work",
		Groups: []cheetah.SweepGroup{{
			Name: "g", Nodes: 4, WalltimeMinutes: 60,
			Sweeps: []cheetah.Sweep{{
				Name:       "s",
				Parameters: []cheetah.Parameter{{Name: "i", Values: values}},
			}},
		}},
	}
}

func TestFuncRegistryExecute(t *testing.T) {
	reg := NewFuncRegistry("work")
	var calls int32
	reg.Register("work", func(params map[string]string) error {
		atomic.AddInt32(&calls, 1)
		if params["i"] == "3" {
			return fmt.Errorf("planted failure")
		}
		return nil
	})
	runs, _ := testCampaign(5).EnumerateRuns()
	eng := &LocalEngine{Executor: reg, Workers: 2}
	results, _, err := eng.RunCampaign(context.Background(), "test", runs)
	if err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&calls) != 5 {
		t.Fatalf("calls = %d", calls)
	}
	var failed int
	for _, r := range results {
		if r.Status == provenance.StatusFailed {
			failed++
			if r.Err == "" {
				t.Fatal("failed run lost its error")
			}
		}
	}
	if failed != 1 {
		t.Fatalf("failed = %d", failed)
	}
}

func TestFuncRegistryUnknownApp(t *testing.T) {
	reg := NewFuncRegistry("missing")
	eng := &LocalEngine{Executor: reg, Workers: 1}
	runs, _ := testCampaign(1).EnumerateRuns()
	results, _, err := eng.RunCampaign(context.Background(), "test", runs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Status != provenance.StatusFailed {
		t.Fatal("unknown app did not fail the run")
	}
}

func TestEngineValidation(t *testing.T) {
	runs, _ := testCampaign(1).EnumerateRuns()
	if _, _, err := (&LocalEngine{Workers: 1}).RunCampaign(context.Background(), "t", runs); err == nil {
		t.Fatal("nil executor accepted")
	}
	reg := NewFuncRegistry("work")
	if _, _, err := (&LocalEngine{Executor: reg}).RunCampaign(context.Background(), "t", runs); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, _, err := (&LocalEngine{Executor: reg, Workers: 1}).RunSets(context.Background(), "t", runs, 0); err == nil {
		t.Fatal("zero set size accepted")
	}
	// A memo that could cache nothing is refused when the campaign opens, not
	// run un-memoized: nothing executes.
	var calls int32
	reg.Register("work", func(map[string]string) error { atomic.AddInt32(&calls, 1); return nil })
	eng := &LocalEngine{Executor: reg, Workers: 1, Memo: &Memo{ComponentDigest: "sha256:c"}}
	if _, _, err := eng.RunCampaign(context.Background(), "t", runs); err == nil {
		t.Fatal("RunCampaign accepted a memo without a cache")
	}
	if _, _, err := eng.RunSets(context.Background(), "t", runs, 1); err == nil {
		t.Fatal("RunSets accepted a memo without a cache")
	}
	if n := atomic.LoadInt32(&calls); n != 0 {
		t.Fatalf("%d run(s) executed under a refused configuration", n)
	}
}

func TestRunAllRecordsProvenanceAndStatus(t *testing.T) {
	root := t.TempDir()
	campaign := testCampaign(4)
	m, err := cheetah.BuildManifest(campaign)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := m.Materialize(root)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewFuncRegistry("work")
	reg.Register("work", func(params map[string]string) error {
		if params["i"] == "2" {
			return fmt.Errorf("nope")
		}
		return nil
	})
	prov := provenance.NewStore()
	eng := &LocalEngine{Executor: reg, Workers: 4, Prov: prov, CampaignDir: dir}
	if _, _, err := eng.RunCampaign(context.Background(), campaign.Name, m.Runs); err != nil {
		t.Fatal(err)
	}
	sum, err := cheetah.Status(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.ByStatus[cheetah.RunSucceeded] != 3 || sum.ByStatus[cheetah.RunFailed] != 1 {
		t.Fatalf("dir status: %+v", sum)
	}
	psum := prov.Summarize("test")
	if psum.Total != 4 || psum.ByStatus[provenance.StatusSucceeded] != 3 {
		t.Fatalf("provenance: %+v", psum)
	}
}

func TestRunSetsBarrier(t *testing.T) {
	// With sets of 2 and one slow run per set, the barrier forces set i+1
	// to start only after set i's straggler. We detect ordering through
	// timestamps.
	campaign := testCampaign(4)
	m, _ := cheetah.BuildManifest(campaign)
	var mu sync.Mutex
	started := map[string]time.Time{}
	reg := NewFuncRegistry("work")
	reg.Register("work", func(params map[string]string) error {
		mu.Lock()
		started[params["i"]] = time.Now()
		mu.Unlock()
		if params["i"] == "0" {
			time.Sleep(60 * time.Millisecond) // straggler in set 0
		}
		return nil
	})
	eng := &LocalEngine{Executor: reg, Workers: 4}
	if _, _, err := eng.RunSets(context.Background(), campaign.Name, m.Runs, 2); err != nil {
		t.Fatal(err)
	}
	if started["2"].Sub(started["0"]) < 50*time.Millisecond {
		t.Fatal("set barrier violated: set 1 started before set 0's straggler finished")
	}
}

func TestRunAllIsDynamicNoBarrier(t *testing.T) {
	// Same workload under dynamic scheduling: the straggler must NOT delay
	// unrelated runs.
	campaign := testCampaign(4)
	m, _ := cheetah.BuildManifest(campaign)
	var mu sync.Mutex
	started := map[string]time.Time{}
	reg := NewFuncRegistry("work")
	reg.Register("work", func(params map[string]string) error {
		mu.Lock()
		started[params["i"]] = time.Now()
		mu.Unlock()
		if params["i"] == "0" {
			time.Sleep(60 * time.Millisecond)
		}
		return nil
	})
	eng := &LocalEngine{Executor: reg, Workers: 2}
	if _, _, err := eng.RunCampaign(context.Background(), campaign.Name, m.Runs); err != nil {
		t.Fatal(err)
	}
	if started["3"].Sub(started["0"]) > 50*time.Millisecond {
		t.Fatal("dynamic scheduling stalled behind the straggler")
	}
}

func TestRetriesRecoverTransientFailures(t *testing.T) {
	campaign := testCampaign(4)
	m, _ := cheetah.BuildManifest(campaign)
	var mu sync.Mutex
	attempts := map[string]int{}
	reg := NewFuncRegistry("work")
	reg.Register("work", func(params map[string]string) error {
		mu.Lock()
		attempts[params["i"]]++
		n := attempts[params["i"]]
		mu.Unlock()
		if n <= 2 {
			return fmt.Errorf("transient %d", n)
		}
		return nil
	})
	eng := &LocalEngine{Executor: reg, Workers: 2,
		Resilience: &resilience.Config{Retry: resilience.RetryPolicy{MaxAttempts: 3}}}
	results, _, err := eng.RunCampaign(context.Background(), campaign.Name, m.Runs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Status != provenance.StatusSucceeded {
			t.Fatalf("run %s failed despite retries: %s", r.Run.ID, r.Err)
		}
	}
	// Each run needed exactly 3 attempts.
	for id, n := range attempts {
		if n != 3 {
			t.Fatalf("run %s attempted %d times", id, n)
		}
	}
}

func TestNoRetriesByDefault(t *testing.T) {
	campaign := testCampaign(1)
	m, _ := cheetah.BuildManifest(campaign)
	var calls int32
	reg := NewFuncRegistry("work")
	reg.Register("work", func(map[string]string) error {
		atomic.AddInt32(&calls, 1)
		return fmt.Errorf("always fails")
	})
	eng := &LocalEngine{Executor: reg, Workers: 1}
	results, _, _ := eng.RunCampaign(context.Background(), campaign.Name, m.Runs)
	if atomic.LoadInt32(&calls) != 1 {
		t.Fatalf("calls = %d", calls)
	}
	if results[0].Status != provenance.StatusFailed {
		t.Fatal("failure not recorded")
	}
}

// TestPointKeyOneParameterFastPath pins the one-parameter shortcut to the
// bytes of the general rendering (keys sorted, "k=v" joined by ","), for 0, 1,
// 2 and 17 parameters — 17 sorts off the stack — with keys and values that
// themselves hold "," and "=".
func TestPointKeyOneParameterFastPath(t *testing.T) {
	general := func(run cheetah.Run) string {
		if len(run.Params) == 0 {
			return run.ID
		}
		var keys, parts []string
		for k := range run.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			parts = append(parts, k+"="+run.Params[k])
		}
		return strings.Join(parts, ",")
	}
	for _, n := range []int{0, 1, 2, 17} {
		for _, odd := range []string{"", ",", "=", "a=b,c"} {
			params := map[string]string{}
			for i := 0; i < n; i++ {
				params[fmt.Sprintf("k%s%02d", odd, 16-i)] = fmt.Sprintf("v%s%d", odd, i)
			}
			run := cheetah.Run{ID: "g/s/run-00007", Params: params}
			if got, want := PointKey(run), general(run); got != want {
				t.Errorf("%d parameter(s), %q in each: PointKey = %q, want %q", n, odd, got, want)
			}
		}
	}
}
