package savanna

import (
	"fmt"

	"fairflow/internal/cas"
	"fairflow/internal/cheetah"
)

// runRecipeKind versions the run-memoization recipe; bump it whenever the
// execution semantics of a cached run change.
const runRecipeKind = "savanna/run@v1"

// Memo memoizes whole campaign runs in an action cache: the key is the
// digest of (component digest, sweep-point parameters), so re-running or
// resuming a campaign re-executes only points whose component or parameters
// are dirty. This is the paper's "simply re-submit a partially completed
// SweepGroup" taken to its limit — the resubmission set shrinks to exactly
// the work whose provenance changed.
type Memo struct {
	// Cache is the backing action cache (and, through it, the object store).
	Cache *cas.ActionCache
	// ComponentDigest fingerprints what executes a run — a Skel manifest
	// digest (skel.Manifest.Digest), or the command fairctl worker runs — so
	// a changed component invalidates every cached run. It is required: a
	// key without it would serve one component's results to another.
	ComponentDigest string
	// Collect, when set, is called after a successful execution and returns
	// the run's output files (name → path); each is ingested into the store
	// and its digest recorded, making the run restorable and its provenance
	// outputs real.
	Collect func(run cheetah.Run) (map[string]string, error)
	// Restore, when set, is called on a cache hit to rematerialize the
	// cached outputs (e.g. cas.Store.Materialize into the run directory).
	// It is also the hit's existence check, so it must fail when an output
	// it places is missing from the store, as Materialize does. A Restore
	// error demotes the hit to a miss — the run re-executes.
	Restore func(run cheetah.Run, outputs map[string]cas.Digest) error
}

// Validate checks the memo configuration. LocalEngine calls it when a
// campaign opens and a remote worker before it dials, and both refuse to run
// with a memo that could cache nothing or whose key names no component; no
// memo at all (nil) is a valid configuration.
func (m *Memo) Validate() error {
	switch {
	case m == nil:
		return nil
	case m.Cache == nil:
		return fmt.Errorf("savanna: memo needs an action cache")
	case m.ComponentDigest == "":
		return fmt.Errorf("savanna: memo needs a component digest")
	}
	return nil
}

// recipeDigest derives the action-cache key for one run: parameters
// "component" and "param:<key>", in that (already sorted) order, and no
// inputs — encoded without building the map. The empty input list stays in
// the encoding: the caches on disk were keyed with it.
func (m *Memo) recipeDigest(run cheetah.Run) cas.Digest {
	var keyBuf [16]string
	keys := cas.SortedKeys(keyBuf[:0], run.Params)
	var buf [512]byte
	e := cas.StartRecipe(buf[:0], runRecipeKind, 1+len(keys))
	e = e.Param("", "component", m.ComponentDigest)
	for _, k := range keys {
		e = e.Param("param:", k, run.Params[k])
	}
	return e.Inputs(0).Digest()
}

// Lookup checks for a usable cached result, restoring outputs when
// configured; the bool reports a hit. A nil memo never hits. With Restore
// set, the restore is the existence check (ActionCache.Place); without it,
// ActionCache.Get stats each output. LocalEngine short-circuits
// already-computed runs with it before placing them, remote workers before
// executing theirs, against their own (possibly shared) store.
func (m *Memo) Lookup(run cheetah.Run) (cas.ActionResult, bool) {
	if m == nil {
		return cas.ActionResult{}, false
	}
	if m.Restore == nil {
		return m.Cache.Get(m.recipeDigest(run))
	}
	return m.Cache.Place(m.recipeDigest(run), func(res cas.ActionResult) error {
		return m.Restore(run, res.Outputs)
	})
}

// Record ingests a successful run's outputs into the store and caches the
// result under the run's recipe, so only digests travel on (into provenance,
// or back from a remote worker). A nil memo records nothing.
func (m *Memo) Record(run cheetah.Run) (cas.ActionResult, error) {
	if m == nil {
		return cas.ActionResult{}, nil
	}
	outputs := map[string]cas.Digest{}
	if m.Collect != nil {
		paths, err := m.Collect(run)
		if err != nil {
			return cas.ActionResult{}, fmt.Errorf("savanna: collecting outputs of %s: %w", run.ID, err)
		}
		for _, n := range cas.SortedKeys(nil, paths) {
			d, _, err := m.Cache.Store().PutFile(paths[n])
			if err != nil {
				return cas.ActionResult{}, fmt.Errorf("savanna: storing output %s of %s: %w", n, run.ID, err)
			}
			outputs[n] = d
		}
	}
	res := cas.ActionResult{Outputs: outputs}
	if err := m.Cache.Put(m.recipeDigest(run), res); err != nil {
		return cas.ActionResult{}, err
	}
	return res, nil
}

// provenanceInputs renders the memo's key material as a provenance Inputs
// map (name → digest) — the gauge ontology's input-digest term made real.
// It is the same for every run of the memo: a Lifecycle builds it once and
// shares it between records, which nothing writes to.
func (m *Memo) provenanceInputs() map[string]string {
	if m == nil || m.ComponentDigest == "" {
		return nil
	}
	return map[string]string{"component": m.ComponentDigest}
}

// OutputDigests renders an action result's outputs as provenance and the
// remote wire carry them: output name → digest, nil when there are none.
func OutputDigests(res cas.ActionResult) map[string]string {
	if len(res.Outputs) == 0 {
		return nil
	}
	out := make(map[string]string, len(res.Outputs))
	for k, d := range res.Outputs {
		out[k] = string(d)
	}
	return out
}
