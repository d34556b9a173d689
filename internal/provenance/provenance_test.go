package provenance

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2021, 6, 1, 12, 0, 0, 0, time.UTC)

func rec(id, component, campaign string, status Status, start time.Time, dur time.Duration) Record {
	r := Record{
		ID: id, Component: component, CampaignID: campaign,
		Status: status, Start: start,
	}
	if status != StatusRunning {
		r.End = start.Add(dur)
	}
	return r
}

func TestRecordValidate(t *testing.T) {
	good := rec("r1", "c", "camp", StatusSucceeded, t0, time.Minute)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Record{
		{Component: "c", Status: StatusSucceeded, Start: t0},                                     // no id
		{ID: "x", Status: StatusSucceeded, Start: t0},                                            // no component
		{ID: "x", Component: "c", Status: "weird", Start: t0},                                    // bad status
		{ID: "x", Component: "c", Status: StatusSucceeded, Start: t0, End: t0.Add(-time.Second)}, // ends early
		{ID: "x", Component: "c", Status: StatusSucceeded, Start: t0,
			Annotations: []Annotation{{Key: "k", Value: "v", Sensitivity: "odd"}}}, // bad sensitivity
	}
	for i, r := range cases {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: invalid record accepted", i)
		}
	}
}

func TestStoreAppendRejectsDuplicates(t *testing.T) {
	s := NewStore()
	if err := s.Append(rec("a", "c", "", StatusSucceeded, t0, time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec("a", "c", "", StatusSucceeded, t0, time.Second)); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestStoreSelectFilters(t *testing.T) {
	s := NewStore()
	mustAppend := func(r Record) {
		t.Helper()
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	r1 := rec("1", "paste", "campA", StatusSucceeded, t0, time.Second)
	r1.SweepPoint = map[string]string{"feature": "f1"}
	r2 := rec("2", "paste", "campA", StatusFailed, t0.Add(time.Hour), time.Second)
	r2.SweepPoint = map[string]string{"feature": "f2"}
	r3 := rec("3", "irf", "campB", StatusSucceeded, t0, time.Second)
	mustAppend(r1)
	mustAppend(r2)
	mustAppend(r3)

	if got := s.Select(Query{CampaignID: "campB"}); len(got) != 1 || got[0].ID != "3" {
		t.Fatalf("campaign filter: %+v", got)
	}
	if got := s.Select(Query{CampaignID: "campA"}); len(got) != 2 || got[0].ID != "1" || got[1].ID != "2" {
		t.Fatalf("campaign filter, insertion order: %+v", got)
	}
	if got := s.Select(Query{}); len(got) != 3 {
		t.Fatalf("empty query: %d", len(got))
	}
}

func TestSummarize(t *testing.T) {
	s := NewStore()
	for i := 0; i < 5; i++ {
		st := StatusSucceeded
		if i >= 3 {
			st = StatusFailed
		}
		r := rec(fmt.Sprintf("r%d", i), "irf", "camp", st, t0.Add(time.Duration(i)*time.Minute), time.Minute)
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	sum := s.Summarize("camp")
	if sum.Total != 5 || sum.ByStatus[StatusSucceeded] != 3 || sum.ByStatus[StatusFailed] != 2 {
		t.Fatalf("summary: %+v", sum)
	}
	if len(sum.FailedIDs) != 2 {
		t.Fatalf("failed ids: %v", sum.FailedIDs)
	}
	if sum.WallTime != 5*time.Minute {
		t.Fatalf("wall time = %v", sum.WallTime)
	}
	if sum.ByComponent["irf"] != 5 {
		t.Fatalf("by component: %+v", sum.ByComponent)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	s := NewStore()
	r := rec("a", "c", "camp", StatusSucceeded, t0, time.Second)
	r.Annotations = []Annotation{{Key: "k", Value: "v", Sensitivity: Public}}
	if err := s.Append(r); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec("b", "c", "camp", StatusFailed, t0, time.Second)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("round trip lost records: %d", back.Len())
	}
	got := back.records["a"]
	if len(got.Annotations) != 1 || got.Annotations[0].Key != "k" {
		t.Fatalf("annotation lost: %+v", got)
	}
}

// TestJSONLRoundTripDigestFields: the Inputs/Outputs digest maps — the gauge
// ontology's input-digest/output-digest terms — must survive JSONL
// serialization exactly, key by key.
func TestJSONLRoundTripDigestFields(t *testing.T) {
	s := NewStore()
	r := rec("a", "savanna-run", "camp", StatusSucceeded, t0, time.Second)
	r.Inputs = map[string]string{
		"component": "sha256:0f1e2d3c4b5a69788796a5b4c3d2e1f00f1e2d3c4b5a69788796a5b4c3d2e1f0",
		"genotypes": "sha256:aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
	}
	r.Outputs = map[string]string{
		"result": "sha256:bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb",
	}
	if err := s.Append(r); err != nil {
		t.Fatal(err)
	}
	// A record with no digests keeps nil maps through the round-trip.
	if err := s.Append(rec("b", "savanna-run", "camp", StatusSucceeded, t0, time.Second)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := back.records["a"]
	if !ok {
		t.Fatal("record a lost")
	}
	if len(got.Inputs) != 2 || got.Inputs["component"] != r.Inputs["component"] ||
		got.Inputs["genotypes"] != r.Inputs["genotypes"] {
		t.Fatalf("inputs mangled: %v", got.Inputs)
	}
	if len(got.Outputs) != 1 || got.Outputs["result"] != r.Outputs["result"] {
		t.Fatalf("outputs mangled: %v", got.Outputs)
	}
	bare := back.records["b"]
	if bare.Inputs != nil || bare.Outputs != nil {
		t.Fatalf("digest-free record grew maps: %v %v", bare.Inputs, bare.Outputs)
	}
}

func TestStoreConcurrentAppend(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r := rec(fmt.Sprintf("g%d-r%d", g, i), "c", "camp", StatusSucceeded, t0, time.Second)
				if err := s.Append(r); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Fatalf("len = %d, want 800", s.Len())
	}
	if got := s.Select(Query{CampaignID: "camp"}); len(got) != 800 {
		t.Fatalf("select = %d", len(got))
	}
}

func TestExportPolicyApply(t *testing.T) {
	r := rec("a", "c", "camp", StatusSucceeded, t0, time.Second)
	r.Environment = map[string]string{"machine": "summit", "user_account": "bio123"}
	r.Annotations = []Annotation{
		{Key: "note", Value: "ok", Sensitivity: Public},
		{Key: "queue", Value: "batch", Sensitivity: Internal},
		{Key: "api_token", Value: "xyz", Sensitivity: Secret},
	}

	pub := DefaultExportPolicy()
	out, ok := pub.Apply(r)
	if !ok {
		t.Fatal("succeeded record excluded")
	}
	if len(out.Annotations) != 1 || out.Annotations[0].Key != "note" {
		t.Fatalf("public policy kept: %+v", out.Annotations)
	}
	if out.Environment != nil {
		t.Fatal("public policy kept environment")
	}

	internal := ExportPolicy{MaxSensitivity: Internal, IncludeEnvironment: true,
		ScrubKeys: []string{"account", "token"}, IncludeFailures: true}
	out, _ = internal.Apply(r)
	if len(out.Annotations) != 2 {
		t.Fatalf("internal policy kept %d annotations", len(out.Annotations))
	}
	if _, leaked := out.Environment["user_account"]; leaked {
		t.Fatal("scrub key leaked")
	}
	if out.Environment["machine"] != "summit" {
		t.Fatal("benign environment entry dropped")
	}

	fail := rec("f", "c", "camp", StatusFailed, t0, time.Second)
	if _, ok := pub.Apply(fail); ok {
		t.Fatal("successes-only policy kept a failure")
	}
	if _, ok := internal.Apply(fail); !ok {
		t.Fatal("failures policy dropped a failure")
	}
}

func TestSecretsNeverExported(t *testing.T) {
	r := rec("a", "c", "camp", StatusSucceeded, t0, time.Second)
	r.Annotations = []Annotation{{Key: "credential", Value: "s3cr3t", Sensitivity: Secret}}
	p := ExportPolicy{MaxSensitivity: Secret, IncludeFailures: true}
	out, _ := p.Apply(r)
	if len(out.Annotations) != 0 {
		t.Fatal("secret annotation exported even at MaxSensitivity=Secret")
	}
}

func TestExportResearchObject(t *testing.T) {
	s := NewStore()
	okRec := rec("ok", "c", "camp", StatusSucceeded, t0, time.Second)
	okRec.Annotations = []Annotation{
		{Key: "note", Value: "fine", Sensitivity: Public},
		{Key: "path", Value: "/gpfs/...", Sensitivity: Internal},
	}
	failRec := rec("bad", "c", "camp", StatusFailed, t0, time.Second)
	for _, r := range []Record{okRec, failRec} {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	ro, err := Export(s, "camp", DefaultExportPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if len(ro.Records) != 1 || ro.Records[0].ID != "ok" {
		t.Fatalf("exported: %+v", ro.Records)
	}
	if ro.Withheld["record:failed"] != 1 {
		t.Fatalf("withheld manifest: %v", ro.Withheld)
	}
	if ro.Withheld["annotations"] != 1 {
		t.Fatalf("annotation withholding not counted: %v", ro.Withheld)
	}
	if _, err := Export(s, "ghost", DefaultExportPolicy()); err == nil {
		t.Fatal("export of empty campaign succeeded")
	}
}
