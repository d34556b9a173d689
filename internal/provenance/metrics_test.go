package provenance

import (
	"fmt"
	"testing"
	"time"
)

func seedDurations(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	durations := []time.Duration{
		10 * time.Second, 12 * time.Second, 11 * time.Second,
		9 * time.Second, 13 * time.Second,
		120 * time.Second, // the straggler
	}
	for i, d := range durations {
		if err := s.Append(rec(fmt.Sprintf("r%d", i), "irf", "camp", StatusSucceeded,
			t0.Add(time.Duration(i)*time.Minute), d)); err != nil {
			t.Fatal(err)
		}
	}
	// A running record must be excluded from duration stats.
	if err := s.Append(rec("running", "irf", "camp", StatusRunning, t0, 0)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDurations(t *testing.T) {
	s := seedDurations(t)
	stats := s.Durations(Query{CampaignID: "camp"})
	if stats.Count != 6 {
		t.Fatalf("count = %d (running record leaked?)", stats.Count)
	}
	if stats.Min != 9*time.Second || stats.Max != 120*time.Second {
		t.Fatalf("min/max: %v/%v", stats.Min, stats.Max)
	}
	if stats.Median < 11*time.Second || stats.Median > 12*time.Second {
		t.Fatalf("median: %v", stats.Median)
	}
	if stats.Mean <= stats.Median {
		t.Fatal("heavy tail should pull mean above median")
	}
	if stats.P95 < stats.Median || stats.P95 > stats.Max {
		t.Fatalf("p95: %v", stats.P95)
	}
}

func TestDurationsEmpty(t *testing.T) {
	s := NewStore()
	if got := s.Durations(Query{}); got.Count != 0 || got.Mean != 0 {
		t.Fatalf("empty stats: %+v", got)
	}
}

// TestQuantileDurEdges pins the interpolated quantile at its edges: q=0 is
// the minimum, q=1 the maximum, and a single sample is every quantile.
func TestQuantileDurEdges(t *testing.T) {
	sorted := []time.Duration{2 * time.Second, 5 * time.Second, 30 * time.Second}
	if got := quantileDur(sorted, 0); got != 2*time.Second {
		t.Errorf("q=0: got %v, want 2s", got)
	}
	if got := quantileDur(sorted, 1); got != 30*time.Second {
		t.Errorf("q=1: got %v, want 30s", got)
	}
	single := []time.Duration{7 * time.Second}
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		if got := quantileDur(single, q); got != 7*time.Second {
			t.Errorf("single sample q=%v: got %v, want 7s", q, got)
		}
	}
}
