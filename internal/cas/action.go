package cas

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"fairflow/internal/appendlog"
	"fairflow/internal/telemetry"
)

// Recipe describes one deterministic operation: what kind of work, with
// which parameters, over which inputs (in order). Its digest is the action
// cache key — two executions with the same recipe must produce byte-identical
// outputs, which is what lets a warm re-run skip them.
type Recipe struct {
	// Kind names the operation, versioned (e.g. "tabular/paste@v1") so a
	// semantic change to the operation invalidates old cache entries.
	Kind string
	// Params are the operation's scalar knobs (delimiter, flags, …).
	Params map[string]string
	// Inputs are the content digests of the operation's inputs, in the
	// order the operation consumes them.
	Inputs []Digest
}

// Digest returns the canonical hash of the recipe. Parameters are folded in
// sorted order; every field is length-prefixed so no two distinct recipes
// can collide by concatenation. The hashed bytes are
//
//	<len>:<kind> p<n>: (<len>:<key> <len>:<value>)×n i<m>: (<len>:<input>)×m
//
// without the spaces, lengths and counts in decimal. Every action cache on
// disk is keyed by this encoding, so it must never change
// (TestRecipeDigestPinned). It is written by RecipeEncoding into one buffer
// — on the stack for a recipe of the usual size — and hashed in one call.
func (r Recipe) Digest() Digest {
	var keyBuf [16]string
	keys := SortedKeys(keyBuf[:0], r.Params)
	var buf [512]byte
	e := StartRecipe(buf[:0], r.Kind, len(keys))
	for _, k := range keys {
		e = e.Param("", k, r.Params[k])
	}
	e = e.Inputs(len(r.Inputs))
	for _, in := range r.Inputs {
		e = e.Input(in)
	}
	return e.Digest()
}

// SortedKeys appends the keys of m to buf in ascending order: the order a
// recipe's parameters and a memo's inputs are encoded in. A stack array as
// buf keeps the usual recipe off the heap.
func SortedKeys(buf []string, m map[string]string) []string {
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}

// RecipeEncoding is a recipe being written in Digest's encoding one field
// at a time, for a caller whose parameters are not one map: Memo keys a run
// on its parameters under "param:" without building the prefixed keys. The
// counts come first, and the parameters must follow in ascending order of
// prefix+key, the order Digest sorts them in; any other order hashes some
// other recipe.
type RecipeEncoding []byte

// StartRecipe begins a recipe of kind with params parameters in b, which
// the encoding appends to (a 512-byte stack array keeps the usual recipe off
// the heap).
func StartRecipe(b []byte, kind string, params int) RecipeEncoding {
	return appendCount(appendField(b, kind), 'p', params)
}

// Param appends the parameter prefix+key = value.
func (e RecipeEncoding) Param(prefix, key, value string) RecipeEncoding {
	e = strconv.AppendInt(e, int64(len(prefix)+len(key)), 10)
	e = append(append(append(e, ':'), prefix...), key...)
	return appendField(e, value)
}

// Inputs ends the parameters and announces n inputs.
func (e RecipeEncoding) Inputs(n int) RecipeEncoding { return appendCount(e, 'i', n) }

// Input appends the next input digest.
func (e RecipeEncoding) Input(d Digest) RecipeEncoding { return appendField(e, string(d)) }

// Digest hashes the encoded recipe.
func (e RecipeEncoding) Digest() Digest { return HashBytes(e) }

// appendField appends s to a recipe encoding as "<len(s)>:<s>".
func appendField(b []byte, s string) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	return append(append(b, ':'), s...)
}

// appendCount appends a list header, "<tag><n>:", to a recipe encoding.
func appendCount(b []byte, tag byte, n int) []byte {
	return append(strconv.AppendInt(append(b, tag), int64(n), 10), ':')
}

// ActionResult records what a recipe produced: named output digests plus
// scalar metadata the caller wants back on a cache hit (row counts, …).
type ActionResult struct {
	Outputs map[string]Digest `json:"outputs"`
	Meta    map[string]string `json:"meta,omitempty"`
}

// fileStat is the stat fingerprint used to memoize file hashing: if a path's
// size and mtime are unchanged since its content was last hashed, the cached
// digest is trusted (the classic build-cache heuristic; Rehash defeats it).
type fileStat struct {
	Size  int64  `json:"size"`
	Mtime int64  `json:"mtime_ns"`
	SHA   Digest `json:"sha256"`
}

// actionFile is the persisted form of the action cache.
type actionFile struct {
	Version int                     `json:"version"`
	Actions map[string]ActionResult `json:"actions"` // recipe digest → result
	Files   map[string]fileStat     `json:"files,omitempty"`
}

// actionRecord is one line of actions.json.log.
type actionRecord struct {
	Recipe Digest       `json:"recipe"`
	Result ActionResult `json:"result"`
}

// ActionCacheVersion is the current actions.json schema version.
const ActionCacheVersion = 1

// ActionCache maps recipe digests to results, backed by a Store that holds
// the output bytes. It persists as a JSON snapshot (written atomically by
// Save) plus an append-only tail, <path>.log, that Put adds one fsynced line
// to. The snapshot also carries the file-stat digest memo, so warm re-runs
// need not re-read unchanged input files.
type ActionCache struct {
	store *Store
	path  string

	mu      sync.Mutex
	actions map[Digest]ActionResult
	files   map[string]fileStat
	log     *metaLog
	dirty   bool // the file memo changed since the last Save

	// Telemetry counters (nil when unset — increments are then no-ops).
	// Wire them with SetMetrics before concurrent use.
	mHits       *telemetry.Counter
	mMisses     *telemetry.Counter
	mMemoHits   *telemetry.Counter
	mMemoMisses *telemetry.Counter
	mPutSeconds *telemetry.Histogram
}

// SetMetrics registers the cache's instruments in reg and starts feeding
// them: cas.action_hits_total / cas.action_misses_total (Get and Place
// outcomes — an entry whose outputs were GC'd or could not be placed counts
// as a miss, matching the re-execution it forces),
// cas.filehash_memo_hits_total / cas.filehash_memo_misses_total
// (stat-fingerprint digest memo) and the cas.action_put_seconds histogram
// (one observation per Put). The backing store is wired too. Call before
// concurrent use; a nil registry is a no-op.
func (c *ActionCache) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.mHits = reg.Counter("cas.action_hits_total")
	c.mMisses = reg.Counter("cas.action_misses_total")
	c.mMemoHits = reg.Counter("cas.filehash_memo_hits_total")
	c.mMemoMisses = reg.Counter("cas.filehash_memo_misses_total")
	c.mPutSeconds = reg.Histogram("cas.action_put_seconds", nil)
	c.store.SetMetrics(reg)
}

// OpenActionCache loads (or initialises) the action cache at path, backed by
// the given store: the snapshot when there is one, then the log replayed
// over it.
func OpenActionCache(path string, store *Store) (*ActionCache, error) {
	c := &ActionCache{
		store:   store,
		path:    path,
		actions: map[Digest]ActionResult{},
		files:   map[string]fileStat{},
		log:     newMetaLog(path),
	}
	if err := c.loadSnapshot(); err != nil {
		return nil, err
	}
	err := c.log.replay(func(line []byte) error {
		rec, err := decodeActionRecord(line)
		if err == nil {
			c.actions[rec.Recipe] = rec.Result
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// loadSnapshot reads the snapshot file into c; an absent one is empty.
func (c *ActionCache) loadSnapshot() error {
	f, err := os.Open(c.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	var af actionFile
	if err := json.NewDecoder(f).Decode(&af); err != nil {
		return fmt.Errorf("cas: parsing action cache: %w", err)
	}
	if af.Version != ActionCacheVersion {
		return fmt.Errorf("cas: unsupported action cache version %d", af.Version)
	}
	for k, v := range af.Actions {
		c.actions[Digest(k)] = v
	}
	for k, v := range af.Files {
		c.files[k] = v
	}
	return nil
}

// decodeActionRecord parses one line of actions.json.log. The snapshot
// decoder takes any result under any key; a line must at least name its
// recipe, which is what tells it from a line of some other log.
func decodeActionRecord(line []byte) (actionRecord, error) {
	var rec actionRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, err
	}
	if rec.Recipe == "" {
		return rec, fmt.Errorf("cas: action record names no recipe")
	}
	return rec, nil
}

// Store returns the backing object store.
func (c *ActionCache) Store() *Store { return c.store }

// Len reports the number of cached actions.
func (c *ActionCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.actions)
}

// Get looks a recipe up. A hit is only reported when every output object is
// still present in the store — a GC'd or corrupted entry is a miss, so the
// caller transparently re-executes.
func (c *ActionCache) Get(recipe Digest) (ActionResult, bool) {
	return c.Place(recipe, func(res ActionResult) error {
		for _, d := range res.Outputs {
			if !c.store.Has(d) {
				return fs.ErrNotExist
			}
		}
		return nil
	})
}

// Place looks a recipe up and hands its result to place, which puts the
// outputs where the caller wants them. Only a place that succeeds makes a
// hit; a place error is a miss, so place is also the existence check: one
// that links each output out of the store (Store.Materialize), failing on a
// missing object, makes a hit one link per output and no stat.
func (c *ActionCache) Place(recipe Digest, place func(ActionResult) error) (ActionResult, bool) {
	c.mu.Lock()
	res, ok := c.actions[recipe]
	c.mu.Unlock()
	if !ok || place(res) != nil {
		c.mMisses.Inc()
		return ActionResult{}, false
	}
	c.mHits.Inc()
	return res, true
}

// Put records a recipe's result: one fsynced log line, then the in-memory
// entry — in that order, so when the write fails Get still misses, here and
// after a reopen.
func (c *ActionCache) Put(recipe Digest, res ActionResult) error {
	start := time.Now()
	c.mu.Lock()
	err := c.log.append(actionRecord{Recipe: recipe, Result: res})
	if err == nil {
		c.actions[recipe] = res
	}
	c.mu.Unlock()
	c.mPutSeconds.Observe(time.Since(start).Seconds())
	return err
}

// HashFileCached digests a file, trusting a stat-unchanged memo entry: an
// unchanged (size, mtime) pair returns the recorded digest without reading
// the file. New results are recorded in memory; call Save to persist them.
func (c *ActionCache) HashFileCached(path string) (Digest, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	st, ok := c.files[path]
	c.mu.Unlock()
	if ok && st.Size == fi.Size() && st.Mtime == fi.ModTime().UnixNano() {
		c.mMemoHits.Inc()
		return st.SHA, nil
	}
	c.mMemoMisses.Inc()
	d, _, err := HashFile(path)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	c.files[path] = fileStat{Size: fi.Size(), Mtime: fi.ModTime().UnixNano(), SHA: d}
	c.dirty = true
	c.mu.Unlock()
	return d, nil
}

// Save compacts the cache if anything changed since the last snapshot: it
// writes actions and file memo as a new snapshot atomically, then drops the
// log the snapshot now covers. It is the only way the file memo reaches
// disk. See metaLog for who may call it when handles share a path.
func (c *ActionCache) Save() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.dirty && c.log.n == 0 {
		return nil
	}
	af := actionFile{
		Version: ActionCacheVersion,
		Actions: make(map[string]ActionResult, len(c.actions)),
		Files:   make(map[string]fileStat, len(c.files)),
	}
	for k, v := range c.actions {
		af.Actions[string(k)] = v
	}
	for k, v := range c.files {
		af.Files[k] = v
	}
	data, err := json.MarshalIndent(af, "", "  ")
	if err != nil {
		return err
	}
	if err := appendlog.WriteFileAtomic(c.path, data, 0o644); err != nil {
		return err
	}
	c.dirty = false
	return c.log.compacted()
}

// Live returns the set of output digests referenced by any cached action —
// the ref-count roots a GC sweep keeps. Input digests are not roots: inputs
// live outside the store (or are themselves some other action's outputs).
func (c *ActionCache) Live() map[Digest]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	live := map[Digest]bool{}
	for _, res := range c.actions {
		for _, d := range res.Outputs {
			live[d] = true
		}
	}
	return live
}
