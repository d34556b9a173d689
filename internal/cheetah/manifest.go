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
	"sync/atomic"

	"fairflow/internal/appendlog"
)

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
// The manifest is the commit marker and the one durable record of what to
// run: a directory that has campaign.json is complete, one that lacks it is
// garbage. Everything else under the campaign directory is a projection of
// it. The run files are therefore created in place — one mkdir and one
// exclusive create, write and close per run, no temp name, no rename — and
// none of them is fsynced: only campaign.json is (temp file, rename, its
// directory), then root for the campaign directory's own entry. A power loss
// can take back run directories and params.json files that campaign.json
// lists; RestoreRunFiles re-creates them, and every command that executes a
// campaign directory calls it when it opens one.
//
// The campaign directory is claimed with an exclusive mkdir, so of two
// concurrent creates one is refused. params.json takes its mode from the
// process umask (0644 under the usual 022), as the directories around it do.
//
// status.log is created by the first engine (or SetRunStatus) to record a
// transition: one appended JSON line {"run","status"} per transition, status
// one of pending|running|succeeded|failed, last line per run wins. A run with
// no line is pending, so a fresh directory has no log at all (see
// RunStatuses).
//
// "The composition engine further adopts its own directory schema to
// represent a campaign end-point... campaign metadata is hidden from the
// user."
func (m *Manifest) Materialize(root string) (string, error) {
	if err := checkName("campaign", m.Campaign.Name); err != nil {
		return "", err
	}
	dir := filepath.Join(root, m.Campaign.Name)
	// The run directories' parents (<group>/<sweep>) and their ancestors
	// below dir, each once. Sorted, a directory comes before everything
	// under it.
	var dirs []string
	made := map[string]bool{dir: true}
	for _, run := range m.Runs {
		runDir, err := runPath(dir, run.ID)
		if err != nil {
			return "", err
		}
		for p := filepath.Dir(runDir); !made[p]; p = filepath.Dir(p) {
			made[p] = true
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
	for _, d := range dirs {
		if err := os.Mkdir(d, 0o755); err != nil {
			return "", err
		}
	}

	// 2. The run directories, with the manifest encoded beside them: the
	// runs queue on their parent directory's lock, and on tmpfs the encoding
	// is about a sixth of the call's CPU.
	var manifest bytes.Buffer
	encoded := make(chan error, 1)
	go func() { encoded <- m.Write(&manifest) }()
	err := m.eachRun(func(run Run) error {
		return writeRunDir(filepath.Join(dir, run.ID), run.Params)
	})
	if eerr := <-encoded; err == nil {
		err = eerr
	}
	if err != nil {
		return "", err
	}

	// 3. The manifest, durable with its entry in dir, then root for dir's
	// own entry.
	if err := appendlog.WriteFileAtomic(filepath.Join(dir, "campaign.json"), manifest.Bytes(), 0o644); err != nil {
		return "", err
	}
	if err := appendlog.SyncDir(root); err != nil {
		return "", err
	}
	return dir, nil
}

// eachRun calls fn for every run, in contiguous shards over a fixed pool. A
// worker stops at its own first error; the others finish their shards. The
// errors come back joined.
func (m *Manifest) eachRun(fn func(Run) error) error {
	workers := min(8, 2*runtime.GOMAXPROCS(0), len(m.Runs))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, shard []Run) {
			defer wg.Done()
			for _, run := range shard {
				if errs[w] = fn(run); errs[w] != nil {
					return
				}
			}
		}(w, m.Runs[w*len(m.Runs)/workers:(w+1)*len(m.Runs)/workers])
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runPath is the directory of the run with the given ID under the campaign
// directory dir, refusing an ID that would leave it.
func runPath(dir, id string) (string, error) {
	runDir := filepath.Join(dir, id)
	if !filepath.IsLocal(id) || runDir == dir {
		return "", fmt.Errorf("cheetah: run ID %q is not a path inside the campaign directory", id)
	}
	return runDir, nil
}

// paramsJSON is a run's params.json: the bytes Materialize writes and
// RestoreRunFiles compares against.
func paramsJSON(params map[string]string) ([]byte, error) {
	return json.MarshalIndent(params, "", "  ")
}

// writeRunDir creates one run directory and its params.json: a mkdir, then
// an exclusive create, one write and a close. Neither is fsynced.
func writeRunDir(runDir string, params map[string]string) error {
	data, err := paramsJSON(params)
	if err != nil {
		return err
	}
	if err := os.Mkdir(runDir, 0o755); err != nil {
		return err
	}
	return appendlog.WriteFile(filepath.Join(runDir, "params.json"), data, os.O_CREATE|os.O_EXCL, 0o644)
}

// RestoreRunFiles re-creates, in the campaign directory dir, every run
// directory and every params.json that is missing or not byte-equal to what
// Materialize writes for its run, and returns how many params.json files it
// wrote. A directory whose run files are all intact is only read. Like
// Materialize it fsyncs nothing: what it writes is a projection of
// campaign.json too, and the next restore re-creates whatever a power loss
// takes back.
func (m *Manifest) RestoreRunFiles(dir string) (int, error) {
	var restored atomic.Int64
	err := m.eachRun(func(run Run) error {
		runDir, err := runPath(dir, run.ID)
		if err != nil {
			return err
		}
		wrote, err := restoreRunDir(runDir, run.Params)
		if wrote {
			restored.Add(1)
		}
		return err
	})
	return int(restored.Load()), err
}

// restoreRunDir rewrites runDir/params.json unless it already holds exactly
// the run's encoding, making runDir (and its parents) first if they are gone.
// It reports whether it wrote.
func restoreRunDir(runDir string, params map[string]string) (bool, error) {
	want, err := paramsJSON(params)
	if err != nil {
		return false, err
	}
	path := filepath.Join(runDir, "params.json")
	if same, err := holds(path, want); same || err != nil {
		return false, err
	}
	// O_TRUNC, not O_EXCL: two restores racing on one file write the same
	// bytes, whichever truncates last.
	err = appendlog.WriteFile(path, want, os.O_CREATE|os.O_TRUNC, 0o644)
	if errors.Is(err, fs.ErrNotExist) {
		if err = os.MkdirAll(runDir, 0o755); err == nil {
			err = appendlog.WriteFile(path, want, os.O_CREATE|os.O_TRUNC, 0o644)
		}
	}
	return err == nil, err
}

// holds reports whether the file at path holds exactly want. A missing file
// holds nothing.
func holds(path string, want []byte) (bool, error) {
	f, err := appendlog.Open(path, os.O_RDONLY, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	defer f.Close()
	got := make([]byte, len(want)+1) // one byte more shows a longer file
	n, err := io.ReadFull(f, got)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return false, err
	}
	return n == len(want) && bytes.Equal(got[:n], want), nil
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
