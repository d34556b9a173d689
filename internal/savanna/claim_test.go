package savanna

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fairflow/internal/appendlog"
	"fairflow/internal/resilience"
	"fairflow/internal/telemetry/eventlog"
)

// TestClaimCampaignOneHolderAtATime: a live claim refuses every other holder
// and names it; a refused claim leaves the claim file and the journal as they
// were; each incarnation fences in one epoch above the last.
func TestClaimCampaignOneHolderAtATime(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "attempts.jsonl")
	a, err := ClaimCampaign(context.Background(), ClaimConfig{Journal: journal, Holder: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if a.Epoch != 1 || a.Records != 0 {
		t.Fatalf("first claim: epoch %d over %d record(s), want epoch 1 over none", a.Epoch, a.Records)
	}
	if _, err := ClaimCampaign(context.Background(), ClaimConfig{Journal: journal, Holder: "b", Resume: true}); err == nil ||
		!strings.Contains(err.Error(), `held by "a"`) {
		t.Fatalf("second holder while a is live: err = %v, want a refusal naming a", err)
	}
	if err := a.Release(); err != nil {
		t.Fatal(err)
	}

	// Without Resume a journal that has records is refused, and the refused
	// claim is dropped again.
	if _, err := ClaimCampaign(context.Background(), ClaimConfig{Journal: journal, Holder: "b"}); err == nil {
		t.Fatal("a journal with records was claimed without Resume")
	}
	if _, ok, _ := resilience.ReadFileLease(journal + ".lease"); ok {
		t.Error("a refused claim left its claim file behind")
	}
	b, err := ClaimCampaign(context.Background(), ClaimConfig{Journal: journal, Holder: "b", Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	if b.Epoch != 2 || b.Records != 1 {
		t.Fatalf("second claim: epoch %d over %d record(s), want epoch 2 over a's epoch record", b.Epoch, b.Records)
	}
	if st, _, _ := resilience.ReadFileLease(journal + ".lease"); st.Holder != "b" || st.Epoch != 2 {
		t.Errorf("claim file = %+v, want b at epoch 2", st)
	}
}

// TestClaimHoldFencesOnTakeover: when a renewal finds a successor's claim,
// the journal is fenced before Hold's context ends, the context's cause names
// the successor, and coordinator.fenced is said.
func TestClaimHoldFencesOnTakeover(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "attempts.jsonl")
	events := eventlog.NewLog()
	c, err := ClaimCampaign(context.Background(), ClaimConfig{Journal: journal, Holder: "a",
		LeaseTTL: 60 * time.Millisecond, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	ctx := c.Hold(context.Background())

	successor, _ := json.Marshal(resilience.FileLeaseState{Holder: "b", Epoch: 2,
		ExpiresUnixNano: time.Now().Add(time.Minute).UnixNano()})
	if err := appendlog.WriteFileAtomic(journal+".lease", successor, 0o644); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Hold's context outlived the takeover")
	}
	if cause := context.Cause(ctx); cause == nil || !strings.Contains(cause.Error(), `taken over by "b"`) {
		t.Errorf("cause = %v, want the takeover", cause)
	}
	if err := c.Journal.Append(resilience.AttemptRecord{Run: "r", Event: resilience.AttemptStart}); !errors.Is(err, resilience.ErrJournalFenced) {
		t.Errorf("append after the takeover: err = %v, want ErrJournalFenced", err)
	}
	if n := countEvents(t, events, eventlog.CoordinatorFenced, eventlog.Error); n != 1 {
		t.Errorf("%d coordinator.fenced event(s), want 1", n)
	}
	if err := c.Release(); err != nil {
		t.Fatal(err)
	}
	if st, _, _ := resilience.ReadFileLease(journal + ".lease"); st.Holder != "b" {
		t.Errorf("the deposed claim dropped its successor's claim file: %+v", st)
	}
}
