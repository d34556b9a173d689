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
	"sort"
	"strings"

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
//	root/<campaign>/campaign.json           — the manifest, written last
//	root/<campaign>/status.log              — run statuses, written by engines
//
// The manifest is the commit marker and the one durable record of what to
// run: a directory that has campaign.json is complete, one that lacks it is
// garbage. It is also the one file create writes: each run costs one mkdir
// (mkdirat of its last ID element on its sweep directory, opened once per
// sweep), and nothing under a run directory is opened or fsynced — only
// campaign.json is (temp file, rename, its directory), then root for the
// campaign directory's own entry. A run's params.json is written by the
// executor that runs it in its directory, at attempt start (WriteParams);
// the executor's own MkdirAll re-creates a run directory a power loss took
// back.
//
// The campaign directory is claimed with an exclusive mkdir, so of two
// concurrent creates one is refused. The directories take their mode from
// the process umask (0755 under the usual 022).
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
	// Each run's directory relative to dir, and the run directories' parents
	// (<group>/<sweep>) and their ancestors below dir, each once. Sorted, a
	// directory comes before everything under it.
	rels := make([]string, len(m.Runs))
	var dirs []string
	made := map[string]bool{".": true}
	last := "."
	for i, run := range m.Runs {
		rel, err := runRel(run.ID)
		if err != nil {
			return "", err
		}
		rels[i] = rel
		if p := filepath.Dir(rel); p != last {
			for last = p; !made[p]; p = filepath.Dir(p) {
				made[p] = true
				dirs = append(dirs, p)
			}
		}
	}
	sort.Strings(dirs)

	// 1. Claim the campaign directory, then make each directory under it once.
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	if err := appendlog.Mkdir(dir, 0o755); errors.Is(err, fs.ErrExist) {
		if _, serr := os.Stat(filepath.Join(dir, "campaign.json")); serr == nil {
			return "", fmt.Errorf("cheetah: campaign directory %s already exists", dir)
		}
		return "", fmt.Errorf("cheetah: campaign directory %s is the leftover of an interrupted create (no campaign.json); remove it, unless another create is still writing it", dir)
	} else if err != nil {
		return "", err
	}
	for _, d := range dirs {
		if err := appendlog.Mkdir(filepath.Join(dir, d), 0o755); err != nil {
			return "", err
		}
	}

	// 2. The run directories, with the manifest encoded beside them.
	var manifest bytes.Buffer
	encoded := make(chan error, 1)
	go func() { encoded <- m.Write(&manifest) }()
	err := makeRunDirs(dir, rels)
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

// makeRunDirs makes the run directory at each path in rels, relative to dir,
// by its last element in its parent, held open across consecutive runs that
// share it: one mkdirat a run, and one open a parent where the runs come
// sweep by sweep. A manifest in any other order re-opens a parent each time
// it changes.
func makeRunDirs(dir string, rels []string) error {
	var parent *appendlog.Dir
	defer func() {
		if parent != nil {
			parent.Close()
		}
	}()
	var parentRel string
	for _, rel := range rels {
		p, base := ".", rel
		if i := strings.LastIndexByte(rel, filepath.Separator); i >= 0 {
			p, base = rel[:i], rel[i+1:]
		}
		if parent == nil || p != parentRel {
			if parent != nil {
				parent.Close()
			}
			var err error
			if parent, err = appendlog.OpenDir(filepath.Join(dir, p)); err != nil {
				return err
			}
			parentRel = p
		}
		if err := parent.Mkdir(base, 0o755); err != nil {
			return err
		}
	}
	return nil
}

// runRel is the directory of the run with the given ID relative to the
// campaign directory, refusing an ID that would leave it or name the
// directory itself.
func runRel(id string) (string, error) {
	rel := filepath.Clean(id)
	if !filepath.IsLocal(id) || rel == "." {
		return "", fmt.Errorf("cheetah: run ID %q is not a path inside the campaign directory", id)
	}
	return rel, nil
}

// WriteParams writes a run's sweep point to runDir/params.json, indented
// JSON, creating or truncating it without an fsync, so a retry or a resume
// rewrites the same bytes. It is the one encoding of params.json.
func WriteParams(runDir string, params map[string]string) error {
	data, err := json.MarshalIndent(params, "", "  ")
	if err != nil {
		return err
	}
	return appendlog.WriteFile(filepath.Join(runDir, "params.json"), data, os.O_CREATE|os.O_TRUNC, 0o644)
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
