// Command fairctl inspects and reports on reusability-gauge metadata.
//
// Subcommands:
//
//	fairctl gauges                    print the six gauge axes and their tiers (Fig. 1)
//	fairctl assess  -f assessments.json [-component name]
//	                                  show debt ledgers, unlocked capabilities,
//	                                  and the payoff curve for stored assessments
//	fairctl terms                     print the machine-queriable ontology term index
//	fairctl plan -workflow wf.json    run the automation planner over a workflow
//	                                  document (annotation formats BED/GFF3/GTF2/PSL
//	                                  get their built-in converters)
//	fairctl export -workflow wf.json -prov runs.jsonl -campaign <id> [-internal] [-o ro.json]
//	                                  package a research object: the workflow plus
//	                                  policy-filtered provenance and a debt summary
//	fairctl cas stats  -dir <store>   object count and payload bytes of an artifact store
//	fairctl cas verify -dir <store>   re-hash every stored object against its digest
//	fairctl cas gc     -dir <store>   sweep objects unreferenced by the action cache
//	fairctl metrics -f dump.json [-format prom|json]
//	                                  render a telemetry dump's metrics (Prometheus
//	                                  text or JSON snapshot)
//	fairctl trace -f dump.json [-o trace.json] [-require-workers N] [campaign]
//	                                  convert a dump's spans to Chrome trace_event
//	                                  JSON (chrome://tracing, ui.perfetto.dev);
//	                                  an optional campaign argument keeps only
//	                                  trees rooted at that campaign;
//	                                  -require-workers N verifies a merged fleet
//	                                  trace (no orphaned parents, worker run spans
//	                                  from ≥N workers under coordinator dispatch)
//	fairctl analyze -f dump.json [-top K] [-format text|json] [-min-coverage 0.9] [-o report.json]
//	                                  critical-path forensics over a telemetry
//	                                  dump: where the campaign's wall time went
//	                                  (exec / queue-wait / retry / overhead),
//	                                  the slowest runs with their CPU and
//	                                  peak-RSS profiles, and per-worker
//	                                  utilization; -min-coverage gates (exit 3)
//	                                  on the path tiling the campaign
//	fairctl watch [-addr host:port | -dir campaignDir] [-interval 2s] [campaign]
//	                                  poll a live campaign (the engine's
//	                                  /health.json endpoint, or a materialised
//	                                  campaign directory) and render progress,
//	                                  stragglers, stalls and alerts until done
//	fairctl health -f dump.json [-rule 'name: metric > x']... [-format text|json]
//	                                  replay a dump's event journal through the
//	                                  campaign monitor; exit 3 if any alert fires
//	fairctl worker -connect host:port [-name w1] [-slots 2] [-cas store]
//	               [-out name:relpath]... [-workdir dir] -- cmd {param}...
//	                                  join a coordinator (savanna run -listen) as
//	                                  a remote execution worker: runs arrive in
//	                                  batches under a heartbeat-renewed lease,
//	                                  each executes via the command template, and
//	                                  named outputs sync by CAS digest (-cas keeps a
//	                                  memo keyed by the command it runs); the worker
//	                                  survives coordinator loss by redialing for
//	                                  -dial-wait and replaying spooled outcomes to
//	                                  the successor
//
// Campaigns themselves are executed, resumed and coordinated by savanna run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"fairflow/internal/annot"
	"fairflow/internal/cas"
	"fairflow/internal/core"
	"fairflow/internal/gauge"
	"fairflow/internal/provenance"
	"fairflow/internal/schema"
	"fairflow/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gauges":
		printGauges()
	case "terms":
		printTerms()
	case "assess":
		fs := flag.NewFlagSet("assess", flag.ExitOnError)
		file := fs.String("f", "", "assessments JSON file (array of assessments)")
		component := fs.String("component", "", "restrict to one component")
		fs.Parse(os.Args[2:])
		if *file == "" {
			fatal(fmt.Errorf("assess needs -f"))
		}
		assess(*file, *component)
	case "plan":
		fs := flag.NewFlagSet("plan", flag.ExitOnError)
		wfFile := fs.String("workflow", "", "workflow document JSON")
		fs.Parse(os.Args[2:])
		if *wfFile == "" {
			fatal(fmt.Errorf("plan needs -workflow"))
		}
		plan(*wfFile)
	case "export":
		fs := flag.NewFlagSet("export", flag.ExitOnError)
		wfFile := fs.String("workflow", "", "workflow document JSON")
		provFile := fs.String("prov", "", "provenance JSONL (as written by savanna -prov)")
		campaign := fs.String("campaign", "", "campaign id to export")
		includeInternal := fs.Bool("internal", false, "retain internal-sensitivity annotations and environment")
		out := fs.String("o", "", "output file (default stdout)")
		fs.Parse(os.Args[2:])
		if *wfFile == "" || *provFile == "" || *campaign == "" {
			fatal(fmt.Errorf("export needs -workflow, -prov and -campaign"))
		}
		export(*wfFile, *provFile, *campaign, *includeInternal, *out)
	case "cas":
		if len(os.Args) < 3 {
			casUsage()
		}
		verb := os.Args[2]
		fs := flag.NewFlagSet("cas "+verb, flag.ExitOnError)
		dir := fs.String("dir", "", "artifact store directory")
		fs.Parse(os.Args[3:])
		if *dir == "" {
			fatal(fmt.Errorf("cas %s needs -dir", verb))
		}
		switch verb {
		case "stats":
			casStats(*dir)
		case "verify":
			casVerify(*dir)
		case "gc":
			casGC(*dir)
		default:
			casUsage()
		}
	case "metrics":
		fs := flag.NewFlagSet("metrics", flag.ExitOnError)
		file := fs.String("f", "", "telemetry dump JSON (as written by gwaspaste -telemetry)")
		format := fs.String("format", "prom", "output format: prom or json")
		fs.Parse(os.Args[2:])
		if *file == "" {
			fatal(fmt.Errorf("metrics needs -f"))
		}
		metricsCmd(*file, *format)
	case "trace":
		fs := flag.NewFlagSet("trace", flag.ExitOnError)
		file := fs.String("f", "", "telemetry dump JSON (as written by gwaspaste or savanna -telemetry)")
		out := fs.String("o", "", "output trace file (default stdout)")
		requireWorkers := fs.Int("require-workers", 0, "verify the dump is a merged fleet trace: no orphaned parents, and worker run spans from at least this many distinct workers parented under coordinator dispatch spans")
		fs.Parse(os.Args[2:])
		if *file == "" {
			fatal(fmt.Errorf("trace needs -f"))
		}
		traceCmd(*file, *out, fs.Arg(0), *requireWorkers)
	case "analyze":
		analyzeCmd(os.Args[2:])
	case "watch":
		watchCmd(os.Args[2:])
	case "health":
		healthCmd(os.Args[2:])
	case "worker":
		workerCmd(os.Args[2:])
	default:
		usage()
	}
}

func readDump(file string) telemetry.Dump {
	f, err := os.Open(file)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	dump, err := telemetry.ReadDump(f)
	if err != nil {
		fatal(err)
	}
	return dump
}

func metricsCmd(file, format string) {
	dump := readDump(file)
	switch format {
	case "prom":
		if err := telemetry.WritePrometheus(os.Stdout, dump.Metrics); err != nil {
			fatal(err)
		}
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(dump.Metrics); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("metrics: unknown format %q (want prom or json)", format))
	}
}

func traceCmd(file, out, campaign string, requireWorkers int) {
	dump := readDump(file)
	spans := dump.Spans
	if campaign != "" {
		spans = telemetry.FilterByRoot(spans, func(root telemetry.SpanData) bool {
			return root.Attr("campaign") == campaign || root.Name == campaign
		})
		if len(spans) == 0 {
			fatal(fmt.Errorf("trace: no span tree rooted at campaign %q", campaign))
		}
	}
	if requireWorkers > 0 {
		workers, err := verifyFleetTrace(spans, requireWorkers)
		if err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
		fmt.Fprintf(os.Stderr, "fairctl: fleet trace verified — %d span(s), worker run spans from %d worker(s) under coordinator dispatch spans, no orphaned parents\n",
			len(spans), workers)
	}
	dst := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		dst = f
	}
	if err := telemetry.WriteChromeTrace(dst, spans); err != nil {
		fatal(err)
	}
	if out != "" {
		fmt.Fprintf(os.Stderr, "fairctl: wrote %d span(s) to %s (load in chrome://tracing or ui.perfetto.dev)\n",
			len(spans), out)
	}
}

// verifyFleetTrace checks that a span set is a well-formed merged fleet
// trace: every parent reference resolves inside the set (the coordinator's
// id remap left no orphans), and worker-executed run spans from at least
// minWorkers distinct workers sit under a coordinator dispatch span
// ("remote.run") — i.e. the campaign really did render as ONE trace across
// processes. Returns the distinct worker count.
func verifyFleetTrace(spans []telemetry.SpanData, minWorkers int) (int, error) {
	byID := make(map[int64]telemetry.SpanData, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent != 0 {
			if _, ok := byID[s.Parent]; !ok {
				return 0, fmt.Errorf("span %d (%s) has orphaned parent %d — merge lost an ancestor", s.ID, s.Name, s.Parent)
			}
		}
	}
	// Climb each worker-attributed span's ancestry looking for a coordinator
	// dispatch span. The step cap guards against parent cycles in a
	// corrupted dump; a healthy trace is a forest.
	workers := map[string]bool{}
	for _, s := range spans {
		wk := s.Attr("worker")
		if wk == "" || s.Parent == 0 {
			continue
		}
		cur, steps := s, 0
		for cur.Parent != 0 && steps < len(spans)+1 {
			cur = byID[cur.Parent]
			steps++
			if cur.Name == "remote.run" {
				workers[wk] = true
				break
			}
		}
	}
	if len(workers) < minWorkers {
		return len(workers), fmt.Errorf("fleet trace has worker spans under coordinator dispatch from %d worker(s), need %d — telemetry merge incomplete", len(workers), minWorkers)
	}
	return len(workers), nil
}

func openStore(dir string) *cas.Store {
	store, err := cas.Open(dir)
	if err != nil {
		fatal(err)
	}
	return store
}

func casStats(dir string) {
	store := openStore(dir)
	st := store.Stats()
	cache, err := cas.OpenActionCache(filepath.Join(dir, "actions.json"), store)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("objects: %d\nbytes:   %d\nactions: %d\n", st.Objects, st.Bytes, cache.Len())
}

func casVerify(dir string) {
	store := openStore(dir)
	errs := store.VerifyAll()
	if len(errs) == 0 {
		fmt.Printf("verified %d object(s): all match their digests\n", store.Stats().Objects)
		return
	}
	for _, err := range errs {
		fmt.Fprintln(os.Stderr, "fairctl:", err)
	}
	fatal(fmt.Errorf("cas verify: %d corrupt object(s)", len(errs)))
}

func casGC(dir string) {
	store := openStore(dir)
	cache, err := cas.OpenActionCache(filepath.Join(dir, "actions.json"), store)
	if err != nil {
		fatal(err)
	}
	removed, freed, err := store.GC(cache.Live())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("removed %d object(s), freed %d byte(s); %d live\n",
		removed, freed, store.Stats().Objects)
}

func casUsage() {
	fmt.Fprintln(os.Stderr, "usage: fairctl cas <stats|verify|gc> -dir <store>")
	os.Exit(2)
}

func export(wfFile, provFile, campaign string, includeInternal bool, out string) {
	wf, err := os.Open(wfFile)
	if err != nil {
		fatal(err)
	}
	defer wf.Close()
	w, err := core.LoadWorkflow(wf)
	if err != nil {
		fatal(err)
	}
	pf, err := os.Open(provFile)
	if err != nil {
		fatal(err)
	}
	defer pf.Close()
	store, err := provenance.ReadJSONL(pf)
	if err != nil {
		fatal(err)
	}
	policy := provenance.DefaultExportPolicy()
	if includeInternal {
		policy.MaxSensitivity = provenance.Internal
		policy.IncludeEnvironment = true
		policy.IncludeFailures = true
	}
	ro, err := core.ExportResearchObject(w, store, []string{campaign}, policy)
	if err != nil {
		fatal(err)
	}
	dst := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		dst = f
	}
	if err := ro.WriteJSON(dst); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "fairctl: exported %d record(s); debt %d interventions / %.0f min per reuse\n",
		len(ro.Provenance[0].Records), ro.DebtSummary.Interventions, ro.DebtSummary.Minutes)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: fairctl <gauges|terms|assess|plan|export|cas|metrics|trace|analyze|watch|health|worker> [flags]")
	os.Exit(2)
}

func plan(wfFile string) {
	f, err := os.Open(wfFile)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	w, err := core.LoadWorkflow(f)
	if err != nil {
		fatal(err)
	}
	// Build a registry covering the workflow's referenced formats: the
	// built-in annotation formats come with converters; anything else is
	// registered bare (plannable as identity edges only).
	reg := schema.NewRegistry()
	if err := annot.RegisterFormats(reg); err != nil {
		fatal(err)
	}
	for _, id := range w.ReferencedFormats() {
		if _, known := reg.Lookup(id); known {
			continue
		}
		// IDs are "name@vN".
		name, version := id, 1
		if i := indexByte(id, '@'); i > 0 {
			name = id[:i]
			fmt.Sscanf(id[i:], "@v%d", &version)
		}
		reg.Register(schema.Format{Name: name, Version: version, Family: schema.ASCII, Kind: schema.Table})
	}

	planner := &core.Planner{Formats: reg}
	p, err := planner.PlanReuse(w)
	if err != nil {
		fatal(err)
	}
	core.SortSteps(p.Steps)
	fmt.Printf("workflow %q: %d steps, %.0f%% automated\n",
		w.Name, len(p.Steps), p.AutomationFraction()*100)
	for _, s := range p.Steps {
		fmt.Printf("  [%-12s] %-40s %s\n", s.Kind, s.Subject, s.Detail)
	}
	iv, minutes := w.Debt()
	fmt.Printf("technical debt: %d interventions, %.0f human-minutes per reuse\n", iv, minutes)
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fairctl:", err)
	os.Exit(1)
}

func printGauges() {
	for _, axis := range gauge.Axes() {
		side := "data"
		if axis.IsSoftware() {
			side = "software"
		}
		fmt.Printf("%s (%s gauge)\n", axis, side)
		for _, ti := range gauge.Levels(axis) {
			fmt.Printf("  tier %d  %-24s %s\n", ti.Tier, ti.Name, ti.Description)
			if len(ti.Requires) > 0 {
				fmt.Printf("          requires:")
				axes := make([]string, 0, len(ti.Requires))
				for dep, min := range ti.Requires {
					axes = append(axes, fmt.Sprintf(" %s≥%d", dep, min))
				}
				sort.Strings(axes)
				for _, a := range axes {
					fmt.Print(a)
				}
				fmt.Println()
			}
		}
		fmt.Println()
	}
}

func printTerms() {
	idx := gauge.TermIndex()
	terms := make([]string, 0, len(idx))
	for t := range idx {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	for _, t := range terms {
		fmt.Printf("%-28s", t)
		for _, ti := range idx[t] {
			fmt.Printf(" %s@%d", ti.Axis, ti.Tier)
		}
		fmt.Println()
	}
}

func assess(file, component string) {
	data, err := os.ReadFile(file)
	if err != nil {
		fatal(err)
	}
	reg := gauge.NewRegistry()
	if err := json.Unmarshal(data, reg); err != nil {
		fatal(err)
	}
	names := reg.Components()
	if component != "" {
		names = []string{component}
	}
	for _, name := range names {
		as := reg.Get(name)
		if as == nil {
			fatal(fmt.Errorf("no assessment for component %q", name))
		}
		fmt.Printf("== %s\n   %s\n", name, as.Vector)
		caps := gauge.UnlockedCapabilities(as.Vector)
		if len(caps) > 0 {
			fmt.Printf("   unlocked:")
			for _, c := range caps {
				fmt.Printf(" %s", c)
			}
			fmt.Println()
		}
		led := gauge.DebtLedger(name, as.Vector)
		fmt.Printf("   debt: %d interventions, %.0f min per reuse\n",
			led.InterventionCount(), led.MinutesPerReuse())
		steps := gauge.PayoffCurve(as.Vector)
		if len(steps) > 0 {
			best := steps[0]
			fmt.Printf("   best next investment: raise %s to tier %d (saves %.0f min, removes %d interventions)\n",
				best.Axis, best.ToTier, best.MinutesSaved, best.Interventions)
		}
		fmt.Println()
	}
}
