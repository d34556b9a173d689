package fairflow_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// Two structural rules of the module, checked over one parse of its tree
// with the standard library alone: the internal/ packages form a strict
// layer order, and every exported identifier under internal/ is reached by
// code that ships (a command, an example, bench/, an experiment driver or
// another package), not only by tests.

// layerOrder is the module's dependency order, lowest first: a package may
// import only packages listed before it. Every package under internal/
// appears exactly once. DESIGN.md §5 copies this order.
var layerOrder = []string{
	// Leaves: no internal imports.
	"expt", "gauge", "schema", "provenance", "catalog", "skel", "appendlog", "telemetry",
	// Telemetry's sinks and readers.
	"telemetry/eventlog", "telemetry/history", "analyze", "monitor",
	// Science substrates and data formats.
	"census", "gwas", "iorf", "simapp", "annot", "hpcsim", "ckpt", "stream",
	// Artifacts and data wrangling.
	"cas", "tabular",
	// The reusability model.
	"core",
	// The campaign stack.
	"cheetah", "resilience", "savanna", "remote",
	// Drivers: the paper's experiments and the cross-module tests.
	"experiments", "integration",
}

// deadAPIAllowlist names the exported identifiers that stay although no
// non-test code reaches them, each with its keep class and reason. It may
// only shrink: deadAPICeiling is its size when committed, and lowers with
// every entry removed.
var deadAPIAllowlist = map[string]string{
	// Reached by a benchmark `make bench-gate` runs: deleting it deletes a gate.
	"cas.Store.PutAll":     "gated bench: BenchmarkCASIngest/parallel4 is a -ratio rule",
	"hpcsim.Sim.Processed": "gated bench: BenchmarkSimReplay checks every event fired with it",
	"tabular.WriteColumn":  "gated bench: BenchmarkGWASPasteWorkflow writes its input columns with it",
	// Cited by EXPERIMENTS.md ("Population-structure-adjusted GWAS").
	"gwas.TopPC":              "experiments: the PCA extension EXPERIMENTS.md cites",
	"gwas.ScanAdjusted":       "experiments: the PC-adjusted scan EXPERIMENTS.md cites",
	"gwas.GenerateStratified": "experiments: the stratified cohort behind EXPERIMENTS.md's lambda figures",
	"gwas.GenomicInflation":   "experiments: the genomic-control lambda EXPERIMENTS.md reports",
	// A roadmap item decides its fate.
	"monitor.RetryStormRule": "roadmap item 7: wired into savanna run after the metric rename, or deleted",
	// Fixtures and references that tests of other behaviour use.
	"remote.Worker.SpoolDepth":           "fixture: the failover, recorder and writer tests observe the outcome spool with it",
	"savanna.FlakyFaults":                "fixture: the resilience and recorder tests inject seeded faults with it",
	"resilience.DecodeJournal":           "fixture: cmd/savanna's tests decode the journal lines a run appended with it",
	"telemetry.Tracer.SetCapacity":       "fixture: span-buffer overflow tests (telemetry, remote) shrink the buffer with it",
	"telemetry/eventlog.Log.SetCapacity": "fixture: event-ring overflow tests (eventlog, remote) shrink the ring with it",
	"telemetry/eventlog.Log.SetMinLevel": "fixture: the stream and monitor tests read debug-level events with it",
	"telemetry/history.Ring.Taken":       "fixture: the ring's concurrent-wraparound test counts every sample with it",
	"expt.Pearson":                       "reference: census's block-correlation test measures Generate's output with it",
	"gauge.Vector.MustSet":               "fixture: the gauge, core and export tests build their vectors with it",
	"stream.ApplyPunctuationScript":      "fixture: the integration test applies Skel's generated deployment.punct with it",
}

const deadAPICeiling = 18

// stdlibMethods are method names the standard library calls through an
// interface (encoding/json, errors, fmt), so a declaration is its use.
var stdlibMethods = map[string]bool{
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Error": true, "Unwrap": true, "Is": true, "As": true, "String": true, "Format": true,
}

type goFile struct {
	rel  string // slash-separated, relative to the module root
	test bool
	ast  *ast.File
}

var (
	parseOnce   sync.Once
	moduleFiles []goFile
	parseErr    error
)

// parseModule parses every .go file of the module once (testdata and
// hidden directories skipped).
func parseModule(t *testing.T) []goFile {
	t.Helper()
	parseOnce.Do(func() {
		fset := token.NewFileSet()
		parseErr = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel := filepath.ToSlash(path)
			moduleFiles = append(moduleFiles, goFile{rel, strings.HasSuffix(rel, "_test.go"), f})
			return nil
		})
	})
	if parseErr != nil {
		t.Fatal(parseErr)
	}
	return moduleFiles
}

// internalPkg returns the package path under internal/ of a file, or "".
func internalPkg(rel string) string {
	if !strings.HasPrefix(rel, "internal/") {
		return ""
	}
	return strings.TrimPrefix(filepath.ToSlash(filepath.Dir(rel)), "internal/")
}

// TestLayerOrder fails when a non-test file of an internal/ package imports
// a package listed at or above it in layerOrder, or when the table and the
// tree disagree on which packages exist.
func TestLayerOrder(t *testing.T) {
	level := map[string]int{}
	for i, p := range layerOrder {
		if _, dup := level[p]; dup {
			t.Errorf("layerOrder lists %q twice", p)
		}
		level[p] = i
	}
	present := map[string]bool{}
	for _, f := range parseModule(t) {
		pkg := internalPkg(f.rel)
		if pkg == "" {
			continue
		}
		present[pkg] = true
		lv, ok := level[pkg]
		if !ok || f.test {
			continue // a missing package is reported once, below
		}
		for _, imp := range f.ast.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			dep, ok := strings.CutPrefix(path, "fairflow/internal/")
			if !ok {
				continue
			}
			if dl, known := level[dep]; !known || dl >= lv {
				t.Errorf("%s imports %s, which is not below %s in layerOrder", f.rel, dep, pkg)
			}
		}
	}
	for pkg := range present {
		if _, ok := level[pkg]; !ok {
			t.Errorf("package internal/%s is missing from layerOrder", pkg)
		}
	}
	for _, p := range layerOrder {
		if !present[p] {
			t.Errorf("layerOrder lists internal/%s, which does not exist", p)
		}
	}
}

// TestNoDeadAPI lists every exported identifier declared in a non-test
// file under internal/ whose name no non-test file of the module uses,
// apart from its own declaration. The rule is by name: any identifier
// spelled the same counts as a use, so the list is a lower bound. Methods
// the standard library calls through an interface are exempt. The test
// fails on a dead identifier missing from deadAPIAllowlist and on an
// allowlist entry that is no longer dead.
func TestNoDeadAPI(t *testing.T) {
	files := parseModule(t)
	decls := map[*ast.Ident]string{} // declaring identifier → allowlist key
	for _, f := range files {
		pkg := internalPkg(f.rel)
		if pkg == "" || f.test {
			continue
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					decls[d.Name] = pkg + "." + d.Name.Name
				} else if !stdlibMethods[d.Name.Name] {
					decls[d.Name] = pkg + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls[s.Name] = pkg + "." + s.Name.Name
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								decls[n] = pkg + "." + n.Name
							}
						}
					}
				}
			}
		}
	}
	used := map[string]bool{}
	for _, f := range files {
		if f.test {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if _, isDecl := decls[id]; !isDecl {
					used[id.Name] = true
				}
			}
			return true
		})
	}
	dead := map[string]bool{}
	for id, key := range decls {
		if !used[id.Name] {
			dead[key] = true
		}
	}
	keys := make([]string, 0, len(dead))
	for key := range dead {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	unlisted := 0
	for _, key := range keys {
		if reason, ok := deadAPIAllowlist[key]; ok {
			t.Logf("allowlisted: %s (%s)", key, reason)
			continue
		}
		unlisted++
		t.Errorf("exported but reached only by tests, or by nothing: %s", key)
	}
	if unlisted > 0 {
		t.Errorf("%d dead exported identifier(s), %d not on the allowlist: delete each with the tests that only test it",
			len(dead), unlisted)
	}
	for key := range deadAPIAllowlist {
		if !dead[key] {
			t.Errorf("allowlist entry %s is reached by non-test code now: remove it and lower deadAPICeiling", key)
		}
	}
	if len(deadAPIAllowlist) > deadAPICeiling {
		t.Errorf("deadAPIAllowlist has %d entries, above its ceiling of %d: the list may only shrink", len(deadAPIAllowlist), deadAPICeiling)
	}
}

// recvName is the type name of a method receiver (*T, T or T[P]).
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
