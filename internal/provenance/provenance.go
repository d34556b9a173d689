// Package provenance implements the provenance substrate behind the
// software-provenance gauge: per-execution records (tier 1), explicit
// campaign context enabling cross-run queries (tier 2), and exportability
// policies that decide which gathered provenance belongs in a distributable
// research object (tier 3).
package provenance

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Status of one recorded execution.
type Status string

// Execution statuses.
const (
	StatusSucceeded Status = "succeeded"
	StatusFailed    Status = "failed"
	StatusKilled    Status = "killed" // terminated by walltime/allocation end
	StatusRunning   Status = "running"
	// StatusSkipped marks a run never attempted: the campaign aborted (stop
	// condition) before the run was dispatched. Skipped runs stay in the
	// resubmission set.
	StatusSkipped Status = "skipped"
)

// Sensitivity classifies a record or annotation for export decisions.
type Sensitivity string

// Sensitivity levels, from freely shareable to internal-only.
const (
	Public   Sensitivity = "public"   // safe in any research object
	Internal Sensitivity = "internal" // site-specific paths, accounts, queues
	Secret   Sensitivity = "secret"   // credentials, PII; never exported
)

// Record is the provenance of one component execution. The fields up to
// Status constitute the gauge's "execution-logs" tier; CampaignID and
// SweepPoint add the "campaign-knowledge" tier.
type Record struct {
	ID        string            `json:"id"`
	Component string            `json:"component"`
	Start     time.Time         `json:"start"`
	End       time.Time         `json:"end,omitempty"`
	Status    Status            `json:"status"`
	ExitCode  int               `json:"exit_code"`
	Inputs    map[string]string `json:"inputs,omitempty"`  // name -> digest
	Outputs   map[string]string `json:"outputs,omitempty"` // name -> digest
	// Environment captures the execution environment (machine, queue,
	// module versions). Typically Internal sensitivity.
	Environment map[string]string `json:"environment,omitempty"`

	// CampaignID and SweepPoint place the execution inside a campaign: the
	// paper's point that automation needs "explicit context for the campaign
	// in which that execution took place".
	CampaignID string            `json:"campaign_id,omitempty"`
	SweepPoint map[string]string `json:"sweep_point,omitempty"` // parameter -> value

	// Annotations are free-form tagged facts with per-tag sensitivity.
	Annotations []Annotation `json:"annotations,omitempty"`

	// Resources is the execution's measured cost, digest-adjacent: two runs
	// with identical inputs but wildly different CPU or memory footprints are
	// a reproducibility signal worth recording. Nil when nothing was measured
	// (cached, skipped, or a platform without rusage).
	Resources *Resources `json:"resources,omitempty"`
}

// Resources is the kernel-accounted cost of one component execution.
type Resources struct {
	CPUUserSeconds   float64 `json:"cpu_user_seconds,omitempty"`
	CPUSystemSeconds float64 `json:"cpu_system_seconds,omitempty"`
	MaxRSSBytes      int64   `json:"max_rss_bytes,omitempty"`
}

// Annotation is one tagged provenance fact.
type Annotation struct {
	Key         string      `json:"key"`
	Value       string      `json:"value"`
	Sensitivity Sensitivity `json:"sensitivity"`
}

// Validate checks structural invariants.
func (r Record) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("provenance: record missing id")
	}
	if r.Component == "" {
		return fmt.Errorf("provenance: record %s missing component", r.ID)
	}
	switch r.Status {
	case StatusSucceeded, StatusFailed, StatusKilled, StatusRunning, StatusSkipped:
	default:
		return fmt.Errorf("provenance: record %s has unknown status %q", r.ID, r.Status)
	}
	if !r.End.IsZero() && r.End.Before(r.Start) {
		return fmt.Errorf("provenance: record %s ends before it starts", r.ID)
	}
	for _, a := range r.Annotations {
		switch a.Sensitivity {
		case Public, Internal, Secret:
		default:
			return fmt.Errorf("provenance: record %s annotation %q has unknown sensitivity %q", r.ID, a.Key, a.Sensitivity)
		}
	}
	return nil
}

// Store is an in-memory, concurrency-safe provenance store with append-only
// semantics (a record may be updated only while running, mirroring how a
// workflow engine closes records out).
type Store struct {
	mu      sync.RWMutex
	records map[string]Record
	order   []string // insertion order for stable listings
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{records: map[string]Record{}}
}

// Append validates and adds a new record. The ID must be unused.
func (s *Store) Append(r Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.records[r.ID]; dup {
		return fmt.Errorf("provenance: record %s already exists", r.ID)
	}
	s.records[r.ID] = r
	s.order = append(s.order, r.ID)
	return nil
}

// Len reports the number of stored records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.records)
}

// Query selects records: an empty CampaignID matches every campaign.
type Query struct {
	CampaignID string
}

// Select returns matching records in insertion order. This is the
// "cross-run query" capability of the campaign-knowledge tier.
func (s *Store) Select(q Query) []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Record
	for _, id := range s.order {
		if r := s.records[id]; q.CampaignID == "" || r.CampaignID == q.CampaignID {
			out = append(out, r)
		}
	}
	return out
}

// CampaignSummary aggregates one campaign's records: the summarisation over
// heterogeneous provenance logs the paper calls for.
type CampaignSummary struct {
	CampaignID  string         `json:"campaign_id"`
	Total       int            `json:"total"`
	ByStatus    map[Status]int `json:"by_status"`
	ByComponent map[string]int `json:"by_component"`
	WallTime    time.Duration  `json:"wall_time"` // span from first start to last end
	FailedIDs   []string       `json:"failed_ids,omitempty"`
}

// Summarize builds a CampaignSummary for the given campaign.
func (s *Store) Summarize(campaignID string) CampaignSummary {
	recs := s.Select(Query{CampaignID: campaignID})
	sum := CampaignSummary{
		CampaignID:  campaignID,
		Total:       len(recs),
		ByStatus:    map[Status]int{},
		ByComponent: map[string]int{},
	}
	var first, last time.Time
	for _, r := range recs {
		sum.ByStatus[r.Status]++
		sum.ByComponent[r.Component]++
		if r.Status == StatusFailed || r.Status == StatusKilled {
			sum.FailedIDs = append(sum.FailedIDs, r.ID)
		}
		if first.IsZero() || r.Start.Before(first) {
			first = r.Start
		}
		if r.End.After(last) {
			last = r.End
		}
	}
	sort.Strings(sum.FailedIDs)
	if !first.IsZero() && last.After(first) {
		sum.WallTime = last.Sub(first)
	}
	return sum
}

// WriteJSONL streams all records as JSON lines in insertion order.
func (s *Store) WriteJSONL(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	enc := json.NewEncoder(w)
	for _, id := range s.order {
		if err := enc.Encode(s.records[id]); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL loads records from a JSON-lines stream into a new store.
func ReadJSONL(r io.Reader) (*Store, error) {
	s := NewStore()
	dec := json.NewDecoder(r)
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			return s, nil
		} else if err != nil {
			return nil, err
		}
		if err := s.Append(rec); err != nil {
			return nil, err
		}
	}
}
