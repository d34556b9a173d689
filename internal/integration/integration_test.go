// Package integration exercises cross-module flows end to end: the
// composition→execution→provenance→export lifecycle, the generation→
// deployment→steering streaming path, and the wrangling→paste→scan GWAS
// pipeline. These are the seams the per-package unit tests cannot see.
package integration

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fairflow/internal/annot"
	"fairflow/internal/cheetah"
	"fairflow/internal/core"
	"fairflow/internal/gauge"
	"fairflow/internal/gwas"
	"fairflow/internal/provenance"
	"fairflow/internal/resilience"
	"fairflow/internal/savanna"
	"fairflow/internal/schema"
	"fairflow/internal/skel"
	"fairflow/internal/stream"
	"fairflow/internal/tabular"
)

// TestCampaignLifecycle runs the full Cheetah→Savanna→provenance→research-
// object pipeline with real OS processes, a planted failure, and a resume.
func TestCampaignLifecycle(t *testing.T) {
	root := t.TempDir()

	// 1. Compose.
	values := make([]string, 8)
	for i := range values {
		values[i] = strconv.Itoa(i)
	}
	campaign := cheetah.Campaign{
		Name: "lifecycle", App: "step", Account: "TEST",
		Groups: []cheetah.SweepGroup{{
			Name: "g", Nodes: 2, WalltimeMinutes: 5,
			Sweeps: []cheetah.Sweep{{
				Name:       "s",
				Parameters: []cheetah.Parameter{{Name: "i", Layer: cheetah.Application, Values: values}},
			}},
		}},
	}
	m, err := cheetah.BuildManifest(campaign)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := m.Materialize(root)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Execute with real processes; i=5 fails on the first pass only
	//    (sentinel file created on first attempt).
	sentinel := filepath.Join(root, "attempted")
	exe := &savanna.ProcessExecutor{
		Command: []string{"sh", "-c",
			fmt.Sprintf("if [ {i} -eq 5 ] && [ ! -f %s ]; then touch %s; exit 1; fi; echo done-{i}", sentinel, sentinel)},
		WorkRoot: filepath.Join(root, "work"),
		Timeout:  30 * time.Second,
	}
	// Each pass is one savanna run incarnation: claim the campaign, replay
	// its journal, execute only what the journal owes.
	prov := provenance.NewStore()
	eng := &savanna.LocalEngine{Executor: exe, Workers: 4, Prov: prov, CampaignDir: dir}
	pass := func() []cheetah.Run {
		t.Helper()
		claim, err := savanna.ClaimCampaign(context.Background(), savanna.ClaimConfig{
			Journal: filepath.Join(dir, "attempts.jsonl"), Holder: "lifecycle", Resume: true, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer claim.Release()
		todo := claim.Owed(m.Runs)
		eng.Resilience = &resilience.Config{Journal: claim.Journal}
		if _, _, err := eng.RunCampaign(context.Background(), campaign.Name, todo); err != nil {
			t.Fatal(err)
		}
		return todo
	}
	if todo := pass(); len(todo) != len(m.Runs) {
		t.Fatalf("first pass owed %d of %d runs", len(todo), len(m.Runs))
	}

	// 3. Status shows the failure; resume completes it.
	sum, err := cheetah.Status(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.ByStatus[cheetah.RunFailed] != 1 || sum.ByStatus[cheetah.RunSucceeded] != 7 {
		t.Fatalf("status after pass 1: %+v", sum.ByStatus)
	}
	if left := pass(); len(left) != 1 || left[0].Params["i"] != "5" {
		t.Fatalf("remaining: %+v", left)
	}
	if final := pass(); len(final) != 0 {
		t.Fatalf("still remaining: %d", len(final))
	}

	// 4. Provenance carries the campaign context.
	psum := prov.Summarize(campaign.Name)
	if psum.Total != 9 || psum.ByStatus[provenance.StatusSucceeded] != 8 {
		t.Fatalf("provenance: %+v", psum)
	}

	// 5. Export a research object around a workflow wrapping the campaign.
	comp := &core.Component{
		Name: "step", Kind: core.Executable,
		Assessment: gauge.NewAssessment("step"),
	}
	comp.Assessment.Attest(gauge.Granularity, 2, "campaign templates")
	comp.Assessment.Attest(gauge.Provenance, 2, "savanna records")
	wf := &core.Workflow{Name: "lifecycle-wf", Components: []*core.Component{comp}}
	ro, err := core.ExportResearchObject(wf, prov, []string{campaign.Name}, provenance.DefaultExportPolicy())
	if err != nil {
		t.Fatal(err)
	}
	// Successes-only policy: 8 of 9 records ship.
	if len(ro.Provenance[0].Records) != 8 {
		t.Fatalf("exported records: %d", len(ro.Provenance[0].Records))
	}
	var buf bytes.Buffer
	if err := ro.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back core.ResearchObject
	if err := json.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if back.Workflow == nil || back.Workflow.Validate() != nil {
		t.Fatalf("exported research object has no valid workflow: %+v", back.Workflow)
	}

	// 6. Run logs exist in the directory schema.
	out, err := os.ReadFile(filepath.Join(root, "work", "g/s/run-00003", "stdout.log"))
	if err != nil || !strings.Contains(string(out), "done-3") {
		t.Fatalf("run log: %q, %v", out, err)
	}
}

// TestGeneratedStreamingDeployment generates a deployment with Skel, applies
// it to a scheduler, serves it over TCP, and steers it — generation to
// wire without hand-written glue.
func TestGeneratedStreamingDeployment(t *testing.T) {
	man, artifacts, err := skel.Generate(skel.StreamTemplates(), skel.Model{
		"name":        "it",
		"schema_name": "shot",
		"fields":      []any{"v:int64"},
		"queues":      []any{"live=forward-all", "steer=direct-selection:64"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if man.Digest() == "" {
		t.Fatal("no digest")
	}
	var deployment string
	for _, a := range artifacts {
		if strings.HasSuffix(a.Path, "deployment.punct") {
			deployment = a.Content
		}
	}
	sched := stream.NewScheduler()
	if _, err := stream.ApplyPunctuationScript(strings.NewReader(deployment), sched); err != nil {
		t.Fatal(err)
	}
	schema := &stream.Schema{Name: "shot", Fields: []stream.Field{{Name: "v", Type: stream.TInt64}}}
	srv, err := stream.NewServer(sched, schema)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	var mu sync.Mutex
	var steered []int64
	go stream.SubscribeTCP(addr, "steer", func(it stream.Item) {
		mu.Lock()
		steered = append(steered, it.Seq)
		mu.Unlock()
	})
	subDeadline := time.Now().Add(2 * time.Second)
	for srv.Subscribers("steer") == 0 {
		if time.Now().After(subDeadline) {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}

	prod, err := stream.DialProducer(addr, schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		rec, _ := stream.NewRecord(schema, i)
		if err := prod.Send(stream.Item{Seq: i, Time: time.Now(), Payload: rec}); err != nil {
			t.Fatal(err)
		}
	}
	prod.Close()

	// Wait until the server has ingested all 20 items before steering;
	// the producer stream is asynchronous.
	ingestDeadline := time.Now().Add(2 * time.Second)
	for {
		admitted := int64(0)
		for _, q := range sched.Queues() {
			if q.Name == "steer" {
				admitted = q.Admitted
			}
		}
		if admitted == 20 {
			break
		}
		if time.Now().After(ingestDeadline) {
			t.Fatalf("server ingested only %d/20 items", admitted)
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctl, err := stream.DialControl(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if err := ctl.Send(stream.WirePunctuation{Op: "select", Queue: "steer", Seqs: []int64{13}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		ok := len(steered) == 1 && steered[0] == 13
		mu.Unlock()
		if ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("steered item never arrived: %v", steered)
}

// TestGWASWrangleToScan runs cohort → per-sample columns → planned paste →
// split-back → scan, asserting the science survives the wrangling round
// trip.
func TestGWASWrangleToScan(t *testing.T) {
	dir := t.TempDir()
	cohort, err := gwas.Generate(gwas.Config{
		SNPs: 500, Samples: 60, CausalSNPs: 5, EffectSize: 1.2, MinMAF: 0.2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]string, cohort.Samples())
	for s := range inputs {
		inputs[s] = filepath.Join(dir, "cols", fmt.Sprintf("sample_%04d.txt", s))
		if err := tabular.WriteColumnBytes(inputs[s], cohort.SampleColumnBytes(s)); err != nil {
			t.Fatal(err)
		}
	}
	matrix := filepath.Join(dir, "matrix.tsv")
	plan, err := tabular.PlanPaste(inputs, matrix, filepath.Join(dir, "work"), 8)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := plan.Execute(context.Background(), tabular.ExecOptions{Parallelism: 4})
	if err != nil || rows != 500 {
		t.Fatalf("rows=%d err=%v", rows, err)
	}
	// Every matrix row holds all 60 samples; column 17 read back down the
	// rows must equal sample 17's column file byte-for-byte.
	data, err := os.ReadFile(matrix)
	if err != nil {
		t.Fatal(err)
	}
	var col17 bytes.Buffer
	for _, row := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		cells := strings.Split(row, "\t")
		if len(cells) != 60 {
			t.Fatalf("matrix row has %d columns, want 60", len(cells))
		}
		col17.WriteString(cells[17] + "\n")
	}
	b, _ := os.ReadFile(inputs[17])
	if !bytes.Equal(col17.Bytes(), b) {
		t.Fatal("wrangling round trip corrupted a column")
	}
	assocs, err := gwas.Scan(cohort)
	if err != nil {
		t.Fatal(err)
	}
	if r := gwas.Recall(cohort, assocs, 10); r < 0.6 {
		t.Fatalf("recall = %.2f", r)
	}
}

// TestAnnotationPlannerFlow plans and executes a format conversion chosen
// by the core automation planner over the annot registry.
func TestAnnotationPlannerFlow(t *testing.T) {
	reg := schema.NewRegistry()
	if err := annot.RegisterFormats(reg); err != nil {
		t.Fatal(err)
	}
	producer := &core.Component{
		Name: "caller", Kind: core.Executable,
		Assessment: gauge.NewAssessment("caller"),
		Ports:      []core.Port{{Name: "out", Direction: core.Out, FormatID: annot.GFF3ID}},
	}
	producer.Assessment.Attest(gauge.DataAccess, 2, "posix gff3")
	producer.Assessment.Attest(gauge.DataSchema, 3, "gff3 registered schema")
	producer.Assessment.Attest(gauge.Granularity, 2, "launch template")
	consumer := &core.Component{
		Name: "viz", Kind: core.Executable,
		Assessment: gauge.NewAssessment("viz"),
		Ports:      []core.Port{{Name: "in", Direction: core.In, FormatID: annot.BEDID}},
	}
	consumer.Assessment.Attest(gauge.DataSchema, 1, "bed")
	consumer.Assessment.Attest(gauge.Granularity, 2, "launch template")
	wf := &core.Workflow{
		Name:       "annot-flow",
		Components: []*core.Component{producer, consumer},
		Edges: []core.Edge{{
			FromComponent: "caller", FromPort: "out",
			ToComponent: "viz", ToPort: "in",
		}},
	}
	planner := &core.Planner{Formats: reg}
	plan, err := planner.PlanReuse(wf)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Steps[0].Kind != core.StepAutoConvert {
		t.Fatalf("edge step: %+v", plan.Steps[0])
	}
	// Execute the conversion the planner chose on real data.
	set := &annot.Set{Features: []annot.Feature{
		{Chrom: "chr3", Start: 1000, End: 2000, Name: "g1", Score: 800,
			Strand: annot.Plus, Type: "gene"},
	}}
	var gff bytes.Buffer
	if err := annot.WriteGFF3(&gff, set); err != nil {
		t.Fatal(err)
	}
	cp, err := reg.PlanConversion(annot.GFF3ID, annot.BEDID)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cp.Execute(gff.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	bed := string(out.([]byte))
	if !strings.Contains(bed, "chr3\t1000\t2000\tg1") {
		t.Fatalf("converted BED: %q", bed)
	}
}
