package cheetah

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
)

// fsync replaces (*os.File).Sync in tests: the seam that observes, orders and
// fails every fsync WriteFileAtomic and Materialize make.
var fsync = (*os.File).Sync

// WriteFileAtomic writes data via a temp file in the target's directory and
// an atomic rename: a crash (or a concurrent reader) can never observe a
// torn or partially-written campaign file — only the old content or the new.
// The temp file is fsynced before the rename and the parent directory after
// it, so the write is also durable across power loss.
func WriteFileAtomic(path string, data []byte, mode os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = fsync(tmp)
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Chmod(tmpName, mode)
	}
	if werr == nil {
		werr = os.Rename(tmpName, path)
	}
	if werr == nil {
		werr = syncDir(dir)
	}
	if werr != nil {
		os.Remove(tmpName)
	}
	return werr
}

// syncDir fsyncs a directory so a just-created or just-renamed entry survives
// power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := fsync(d)
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// Manifest is the interoperability layer between composition (Cheetah) and
// execution (Savanna): "an abstract manifest of the campaign ... a JSON
// schema to describe the full campaign, which includes the science
// applications [and] parameter sweeps declared by the user". Any execution
// engine that understands the manifest can run the campaign.
type Manifest struct {
	Version  int      `json:"version"`
	Campaign Campaign `json:"campaign"`
	Runs     []Run    `json:"runs"`
}

// ManifestVersion is the current manifest schema version.
const ManifestVersion = 1

// BuildManifest validates the campaign and enumerates its runs.
func BuildManifest(c Campaign) (*Manifest, error) {
	runs, err := c.EnumerateRuns()
	if err != nil {
		return nil, err
	}
	return &Manifest{Version: ManifestVersion, Campaign: c, Runs: runs}, nil
}

// Write serialises the manifest as indented JSON.
func (m *Manifest) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// ReadManifest parses and validates a manifest.
func ReadManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("cheetah: parsing manifest: %w", err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("cheetah: unsupported manifest version %d", m.Version)
	}
	if err := m.Campaign.Validate(); err != nil {
		return nil, err
	}
	if len(m.Runs) != m.Campaign.Size() {
		return nil, fmt.Errorf("cheetah: manifest lists %d runs for a campaign of %d", len(m.Runs), m.Campaign.Size())
	}
	return &m, nil
}

// RunStatus is the per-run execution status recorded in the campaign
// directory's status log by the execution engine.
type RunStatus string

// Run statuses in the campaign directory schema.
const (
	RunPending   RunStatus = "pending"
	RunRunning   RunStatus = "running"
	RunSucceeded RunStatus = "succeeded"
	RunFailed    RunStatus = "failed"
)

// Materialize creates the campaign's directory schema under root:
//
//	root/<campaign>/<group>/<sweep>/run-N/  — one directory per run
//	    params.json                         — the run's sweep point
//	root/<campaign>/campaign.json           — the manifest, written last
//	root/<campaign>/status.log              — run statuses, written by engines
//
// The manifest is the commit marker: a directory that has campaign.json is
// complete and durable, one that lacks it is garbage. That is why the run
// files are created in place, with no temp name and no rename — nothing reads
// a directory without its manifest — and why every file and every directory
// that gained an entry is fsynced before campaign.json exists: each entry the
// manifest vouches for is on stable storage by the time the manifest is.
//
// The campaign directory is claimed with an exclusive mkdir, so of two
// concurrent creates one is refused. params.json takes its mode from the
// process umask (0644 under the usual 022), as the directories around it do.
//
// status.log is created by the first engine (or SetRunStatus) to record a
// transition: one appended JSON line {"run","status"} per transition, status
// one of pending|running|succeeded|failed, last line per run wins. A run with
// no line is pending, so a fresh directory has no log at all. Directories
// materialised before the log existed keep a per-run "status" file in each
// run directory; it still answers for a run the log does not mention (see
// RunStatuses).
//
// "The composition engine further adopts its own directory schema to
// represent a campaign end-point... campaign metadata is hidden from the
// user."
func (m *Manifest) Materialize(root string) (string, error) {
	if err := checkName("campaign", m.Campaign.Name); err != nil {
		return "", err
	}
	var manifest bytes.Buffer
	if err := m.Write(&manifest); err != nil {
		return "", err
	}
	dir := filepath.Join(root, m.Campaign.Name)
	// Every directory that will gain an entry: the run directories' parents
	// (<group>/<sweep>) and their ancestors up to dir. Sorted, a directory
	// comes before everything under it, and dir comes first.
	dirs := []string{dir}
	gained := map[string]bool{dir: true}
	for _, run := range m.Runs {
		runDir := filepath.Join(dir, run.ID)
		if !filepath.IsLocal(run.ID) || runDir == dir {
			return "", fmt.Errorf("cheetah: run ID %q is not a path inside the campaign directory", run.ID)
		}
		for p := filepath.Dir(runDir); !gained[p]; p = filepath.Dir(p) {
			gained[p] = true
			dirs = append(dirs, p)
		}
	}
	sort.Strings(dirs)

	// 1. Claim the campaign directory, then make each directory under it once.
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	if err := os.Mkdir(dir, 0o755); errors.Is(err, fs.ErrExist) {
		if _, serr := os.Stat(filepath.Join(dir, "campaign.json")); serr == nil {
			return "", fmt.Errorf("cheetah: campaign directory %s already exists", dir)
		}
		return "", fmt.Errorf("cheetah: campaign directory %s is the leftover of an interrupted create (no campaign.json); remove it, unless another create is still writing it", dir)
	} else if err != nil {
		return "", err
	}
	for _, d := range dirs[1:] {
		if err := os.Mkdir(d, 0o755); err != nil {
			return "", err
		}
	}

	// 2. The run directories, in contiguous shards over a fixed pool. A worker
	// stops at its own first error; the others finish their shards.
	workers := min(8, 2*runtime.GOMAXPROCS(0), len(m.Runs))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, shard []Run) {
			defer wg.Done()
			for _, run := range shard {
				if errs[w] = writeRunDir(filepath.Join(dir, run.ID), run.Params); errs[w] != nil {
					return
				}
			}
		}(w, m.Runs[w*len(m.Runs)/workers:(w+1)*len(m.Runs)/workers])
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return "", err
	}

	// 3. Every directory that gained an entry, deepest first, then the
	// manifest, then root for dir's own entry.
	for i := len(dirs) - 1; i >= 0; i-- {
		if err := syncDir(dirs[i]); err != nil {
			return "", err
		}
	}
	if err := WriteFileAtomic(filepath.Join(dir, "campaign.json"), manifest.Bytes(), 0o644); err != nil {
		return "", err
	}
	if err := syncDir(root); err != nil {
		return "", err
	}
	return dir, nil
}

// writeRunDir creates one run directory and its params.json, both durable on
// return: the file is fsynced, then the directory that names it.
func writeRunDir(runDir string, params map[string]string) error {
	data, err := json.MarshalIndent(params, "", "  ")
	if err != nil {
		return err
	}
	if err := os.Mkdir(runDir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(runDir, "params.json"), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = fsync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = syncDir(runDir)
	}
	return err
}

// LoadCampaignDir reads the manifest back from a materialised campaign
// directory.
func LoadCampaignDir(dir string) (*Manifest, error) {
	f, err := os.Open(filepath.Join(dir, "campaign.json"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadManifest(f)
}

// StatusSummary aggregates run statuses — the "API to submit a campaign and
// query its status".
type StatusSummary struct {
	Total    int               `json:"total"`
	ByStatus map[RunStatus]int `json:"by_status"`
	// PendingRuns lists runs not yet succeeded (the resubmission set).
	PendingRuns []string `json:"pending_runs,omitempty"`
}

// Progress returns the fraction of runs in a terminal state (succeeded or
// failed), in [0, 1]. An empty campaign reports 0.
func (s *StatusSummary) Progress() float64 {
	if s == nil || s.Total == 0 {
		return 0
	}
	done := s.ByStatus[RunSucceeded] + s.ByStatus[RunFailed]
	return float64(done) / float64(s.Total)
}

// Done reports whether every run has reached a terminal state.
func (s *StatusSummary) Done() bool {
	if s == nil || s.Total == 0 {
		return false
	}
	return s.ByStatus[RunSucceeded]+s.ByStatus[RunFailed] == s.Total
}

// Status summarises a materialised campaign directory: its manifest overlaid
// with its status log (see RunStatuses).
func Status(dir string) (*StatusSummary, error) {
	m, err := LoadCampaignDir(dir)
	if err != nil {
		return nil, err
	}
	statuses, err := m.runStatuses(dir)
	if err != nil {
		return nil, err
	}
	sum := &StatusSummary{ByStatus: map[RunStatus]int{}}
	for _, run := range m.Runs {
		st := statuses[run.ID]
		sum.Total++
		sum.ByStatus[st]++
		if st != RunSucceeded {
			sum.PendingRuns = append(sum.PendingRuns, run.ID)
		}
	}
	sort.Strings(sum.PendingRuns)
	return sum, nil
}
