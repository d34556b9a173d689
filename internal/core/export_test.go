package core

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"fairflow/internal/gauge"
	"fairflow/internal/provenance"
)

func seedProv(t *testing.T) *provenance.Store {
	t.Helper()
	store := provenance.NewStore()
	start := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	ok := provenance.Record{
		ID: "r1", Component: "producer", CampaignID: "camp",
		Status: provenance.StatusSucceeded, Start: start, End: start.Add(time.Minute),
		Annotations: []provenance.Annotation{
			{Key: "note", Value: "fine", Sensitivity: provenance.Public},
			{Key: "gpfs_path", Value: "/gpfs/x", Sensitivity: provenance.Internal},
		},
	}
	bad := provenance.Record{
		ID: "r2", Component: "producer", CampaignID: "camp",
		Status: provenance.StatusFailed, Start: start, End: start.Add(time.Minute),
	}
	for _, r := range []provenance.Record{ok, bad} {
		if err := store.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

func TestExportResearchObject(t *testing.T) {
	w := twoStepWorkflow(highTiers(), "bed@v1", "bed@v1")
	store := seedProv(t)
	ro, err := ExportResearchObject(w, store, []string{"camp"}, provenance.DefaultExportPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if len(ro.Provenance) != 1 || len(ro.Provenance[0].Records) != 1 {
		t.Fatalf("provenance: %+v", ro.Provenance)
	}
	rec := ro.Provenance[0].Records[0]
	if len(rec.Annotations) != 1 || rec.Annotations[0].Key != "note" {
		t.Fatalf("policy not applied: %+v", rec.Annotations)
	}
	if ro.DebtSummary.Minutes <= 0 || ro.DebtSummary.Interventions <= 0 {
		t.Fatalf("debt summary: %+v", ro.DebtSummary)
	}
}

func TestExportCapabilitiesAreIntersection(t *testing.T) {
	w := twoStepWorkflow(highTiers(), "bed@v1", "bed@v1")
	store := seedProv(t)
	// Producer unlocks auto-convert (access 2 + schema 3); consumer does
	// not — so the intersection must exclude it.
	ro, err := ExportResearchObject(w, store, []string{"camp"}, provenance.DefaultExportPolicy())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ro.DebtSummary.UnlockedCapabilities {
		if c == gauge.CapAutoConvert {
			t.Fatal("intersection leaked a capability only one component has")
		}
	}
	// Raise the consumer too; now it must appear.
	cons, _ := w.Component("consumer")
	cons.Assessment.Vector.MustSet(gauge.DataAccess, 2).MustSet(gauge.DataSchema, 3)
	ro2, err := ExportResearchObject(w, store, []string{"camp"}, provenance.DefaultExportPolicy())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range ro2.DebtSummary.UnlockedCapabilities {
		if c == gauge.CapAutoConvert {
			found = true
		}
	}
	if !found {
		t.Fatal("shared capability missing from intersection")
	}
}

func TestExportUnknownCampaignFails(t *testing.T) {
	w := twoStepWorkflow(highTiers(), "bed@v1", "bed@v1")
	store := seedProv(t)
	if _, err := ExportResearchObject(w, store, []string{"ghost"}, provenance.DefaultExportPolicy()); err == nil {
		t.Fatal("unknown campaign exported")
	}
}

func TestResearchObjectJSONRoundTrip(t *testing.T) {
	w := twoStepWorkflow(highTiers(), "bed@v1", "bed@v1")
	store := seedProv(t)
	ro, err := ExportResearchObject(w, store, []string{"camp"}, provenance.DefaultExportPolicy())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ro.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back ResearchObject
	if err := json.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if back.Workflow == nil || back.Workflow.Name != w.Name || len(back.Provenance) != 1 {
		t.Fatalf("round trip: %+v", back)
	}
	if err := back.Workflow.Validate(); err != nil {
		t.Fatal(err)
	}
}
