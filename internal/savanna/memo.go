package savanna

import (
	"fmt"
	"sort"

	"fairflow/internal/cas"
	"fairflow/internal/cheetah"
)

// runRecipeKind versions the run-memoization recipe; bump it whenever the
// execution semantics of a cached run change.
const runRecipeKind = "savanna/run@v1"

// Memo memoizes whole campaign runs in an action cache: the key is the
// digest of (component/model digest, sweep-point parameters, input digests),
// so re-running or resuming a campaign re-executes only points whose
// component, parameters or inputs are dirty. This is the paper's "simply
// re-submit a partially completed SweepGroup" taken to its limit — the
// resubmission set shrinks to exactly the work whose provenance changed.
type Memo struct {
	// Cache is the backing action cache (and, through it, the object store).
	Cache *cas.ActionCache
	// ComponentDigest fingerprints the component/model under execution —
	// typically the Skel manifest digest (skel.Manifest.Digest), so a
	// regenerated workflow invalidates every cached run.
	ComponentDigest string
	// InputDigests names the campaign-level input artifacts (name → content
	// digest). Changing any input invalidates every run that keys on it.
	InputDigests map[string]string
	// Collect, when set, is called after a successful execution and returns
	// the run's output files (name → path); each is ingested into the store
	// and its digest recorded, making the run restorable and its provenance
	// outputs real.
	Collect func(run cheetah.Run) (map[string]string, error)
	// Restore, when set, is called on a cache hit to rematerialize the
	// cached outputs (e.g. cas.Store.Materialize into the run directory).
	// A Restore error demotes the hit to a miss — the run re-executes.
	Restore func(run cheetah.Run, outputs map[string]cas.Digest) error
}

// validate checks the memo configuration.
func (m *Memo) validate() error {
	if m.Cache == nil {
		return fmt.Errorf("savanna: memo needs an action cache")
	}
	return nil
}

// recipeDigest derives the action-cache key for one run.
func (m *Memo) recipeDigest(run cheetah.Run) cas.Digest {
	params := map[string]string{"component": m.ComponentDigest}
	for k, v := range run.Params {
		params["param:"+k] = v
	}
	names := make([]string, 0, len(m.InputDigests))
	for n := range m.InputDigests {
		names = append(names, n)
	}
	sort.Strings(names)
	inputs := make([]cas.Digest, 0, len(names))
	for _, n := range names {
		params["input:"+n] = m.InputDigests[n]
		inputs = append(inputs, cas.Digest(m.InputDigests[n]))
	}
	return cas.Recipe{Kind: runRecipeKind, Params: params, Inputs: inputs}.Digest()
}

// lookup checks for a usable cached result, restoring outputs when
// configured. The bool reports a hit.
func (m *Memo) lookup(run cheetah.Run) (cas.ActionResult, bool) {
	res, ok := m.Cache.Get(m.recipeDigest(run))
	if !ok {
		return cas.ActionResult{}, false
	}
	if m.Restore != nil {
		if err := m.Restore(run, res.Outputs); err != nil {
			return cas.ActionResult{}, false // demote to miss: re-execute
		}
	}
	return res, true
}

// record ingests a successful run's outputs into the store and caches the
// result under the run's recipe.
func (m *Memo) record(run cheetah.Run) (cas.ActionResult, error) {
	outputs := map[string]cas.Digest{}
	if m.Collect != nil {
		paths, err := m.Collect(run)
		if err != nil {
			return cas.ActionResult{}, fmt.Errorf("savanna: collecting outputs of %s: %w", run.ID, err)
		}
		names := make([]string, 0, len(paths))
		for n := range paths {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
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

// Validate checks the memo configuration — the exported form engines
// outside this package (internal/remote) gate on.
func (m *Memo) Validate() error { return m.validate() }

// Lookup checks for a usable cached result, restoring outputs when
// configured; the bool reports a hit. Exported for the remote engine: the
// coordinator short-circuits already-computed runs before dispatching, and
// workers short-circuit against their own (possibly shared) store.
func (m *Memo) Lookup(run cheetah.Run) (cas.ActionResult, bool) { return m.lookup(run) }

// Record ingests a successful run's outputs into the store and caches the
// result under the run's recipe (exported for the remote worker, which
// pushes outputs by digest instead of shipping bytes back).
func (m *Memo) Record(run cheetah.Run) (cas.ActionResult, error) { return m.record(run) }

// provenanceInputs renders the memo's key material as a provenance Inputs
// map (name → digest) — the gauge ontology's input-digest term made real.
func (m *Memo) provenanceInputs() map[string]string {
	if m == nil {
		return nil
	}
	in := map[string]string{}
	if m.ComponentDigest != "" {
		in["component"] = m.ComponentDigest
	}
	for k, v := range m.InputDigests {
		in[k] = v
	}
	if len(in) == 0 {
		return nil
	}
	return in
}

// provenanceOutputs renders an action result's outputs as a provenance
// Outputs map.
func provenanceOutputs(res cas.ActionResult) map[string]string {
	if len(res.Outputs) == 0 {
		return nil
	}
	out := make(map[string]string, len(res.Outputs))
	for k, d := range res.Outputs {
		out[k] = string(d)
	}
	return out
}
