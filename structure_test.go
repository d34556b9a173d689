package fairflow_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// Two structural rules of the module, checked over one parse and one type
// check of its tree with the standard library alone: the internal/ packages
// form a strict layer order, and every exported identifier under internal/
// is reached by code that ships (a command, an example, bench/, an
// experiment driver or another package), not only by tests. Uses are
// resolved to objects by go/types, so two identifiers spelled the same are
// two identifiers; a config field counts as reached only when shipping code
// sets it, and a package defaulting its own config copy does not set it.

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

// deadAPIAllowlist names the exported identifiers and fields that stay
// although no non-test code reaches (or, for a field, sets) them, each with
// its keep class and reason. It may only shrink: deadAPICeiling is its size
// when committed, and lowers with every entry removed.
var deadAPIAllowlist = map[string]string{
	// Reached by a benchmark `make bench-gate` runs: deleting it deletes a gate.
	"cas.Store.PutAll":     "gated bench: BenchmarkCASIngest/parallel4 is a -ratio rule",
	"hpcsim.Sim.Processed": "gated bench: BenchmarkSimReplay checks every event fired with it",
	"hpcsim.Sim.Step":      "gated bench: BenchmarkSimReplay/step is the baseline of the batch -ratio rule",
	"tabular.WriteColumn":  "gated bench: BenchmarkGWASPasteWorkflow writes its input columns with it",
	// Cited by EXPERIMENTS.md ("Population-structure-adjusted GWAS", "FIFO vs
	// EASY-backfill batch queue").
	"gwas.TopPC":                      "experiments: the PCA extension EXPERIMENTS.md cites",
	"gwas.ScanAdjusted":               "experiments: the PC-adjusted scan EXPERIMENTS.md cites",
	"gwas.GenerateStratified":         "experiments: the stratified cohort behind EXPERIMENTS.md's lambda figures",
	"gwas.GenomicInflation":           "experiments: the genomic-control lambda EXPERIMENTS.md reports",
	"hpcsim.ClusterConfig.Scheduling": "experiments: the EASY-backfill ablation EXPERIMENTS.md cites (TestBackfillImprovesMakespan)",
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
	"telemetry.Histogram.Count":          "fixture: the registry, cas metadata-log, recorder and wire tests count observations with it",
	"telemetry/history.Ring.SetClock":    "fixture: TestRateRuleUsesHistoryWindow and the ring's rate tests sample in virtual time with it",
	"resilience.Config.Seed":             "fixture: the savanna resilience tests pin the retry jitter with it",
	"resilience.Config.Sleep":            "fixture: the resilience and chaos tests replace the backoff sleeper with it",
	// Config the equivalence goldens (TestThreeEngineEquivalence) and the
	// CI-run TestMonitoredSimCampaignEndToEnd drive: the reference engines'
	// acceptance surface.
	"savanna.SimEngine.Resilience":    "reference: the sim leg of TestThreeEngineEquivalence retries and journals through it",
	"savanna.SimEngine.FaultModel":    "reference: the sim leg of TestThreeEngineEquivalence injects its faults with it",
	"savanna.SimEngine.Failures":      "reference: TestMonitoredSimCampaignEndToEnd fails nodes with it",
	"savanna.SimEngine.Tracer":        "reference: TestMonitoredSimCampaignEndToEnd traces in virtual time with it",
	"savanna.SimEngine.Metrics":       "reference: TestMonitoredSimCampaignEndToEnd and the equivalence goldens count with it",
	"savanna.SimEngine.Events":        "reference: TestMonitoredSimCampaignEndToEnd and the equivalence goldens journal events with it",
	"savanna.SimEngine.Probe":         "reference: TestMonitoredSimCampaignEndToEnd evaluates health mid-simulation with it",
	"hpcsim.FailureConfig.MTTF":       "reference: TestMonitoredSimCampaignEndToEnd and the sim chaos tests set the node failure rate with it",
	"hpcsim.FailureConfig.RepairTime": "reference: TestMonitoredSimCampaignEndToEnd and the sim chaos tests set node repair with it",
}

const deadAPICeiling = 33

type goFile struct {
	rel   string // slash-separated, relative to the module root
	test  bool
	build bool // selected by the host's build constraints
	ast   *ast.File
}

var (
	parseOnce   sync.Once
	fset        = token.NewFileSet()
	moduleFiles []goFile
	parseErr    error
)

// parseModule parses every .go file of the module once (testdata and
// hidden directories skipped), noting which files the host's build
// constraints select.
func parseModule(t *testing.T) []goFile {
	t.Helper()
	parseOnce.Do(func() {
		parseErr = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") {
				return nil
			}
			match, err := build.Default.MatchFile(filepath.Dir(p), d.Name())
			if err != nil {
				return err
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel := filepath.ToSlash(p)
			moduleFiles = append(moduleFiles, goFile{rel, strings.HasSuffix(rel, "_test.go"), match, f})
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
	return strings.TrimPrefix(path.Dir(rel), "internal/")
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

// shipped is the module's shipping code, type-checked: every non-test file
// the host's build constraints select, one package per directory. It is
// the type checker's importer: a module import is type-checked from the
// parse (once), any other is read from the compiler's export data.
type shipped struct {
	t      *testing.T
	files  []goFile
	byPath map[string][]*ast.File // the files of each module package
	info   *types.Info
	pkgs   map[string]*types.Package // by import path
	std    types.Importer            // the standard library's, shared so its types are one set of objects
}

// typeCheckModule type-checks the non-test files of every package of the
// module, in dependency order, with the standard library read from its
// export data. Every type error is reported.
func typeCheckModule(t *testing.T) *shipped {
	t.Helper()
	s := &shipped{
		t:      t,
		byPath: map[string][]*ast.File{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		pkgs: map[string]*types.Package{},
		std:  importer.ForCompiler(fset, "gc", nil),
	}
	for _, f := range parseModule(t) {
		if f.test || !f.build {
			continue
		}
		s.files = append(s.files, f)
		p := path.Join("fairflow", path.Dir(f.rel))
		s.byPath[p] = append(s.byPath[p], f.ast)
	}
	paths := make([]string, 0, len(s.byPath))
	for p := range s.byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		s.Import(p)
	}
	return s
}

func (s *shipped) Import(p string) (*types.Package, error) {
	if pkg, ok := s.pkgs[p]; ok {
		return pkg, nil
	}
	files, ok := s.byPath[p]
	if !ok {
		return s.std.Import(p)
	}
	conf := types.Config{Importer: s, Error: func(err error) { s.t.Errorf("type error: %v", err) }}
	pkg, _ := conf.Check(p, fset, files, s.info)
	s.pkgs[p] = pkg
	return pkg, nil
}

// origin maps a use of an instantiated generic's method or field back to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// finding is one identifier or field the rules call dead.
type finding struct {
	key  string // pkg.Name, pkg.Type.Method or pkg.Type.Field: the allowlist key
	pos  string // file:line of the declaration
	rule string
}

const (
	ruleUnreached = "dead API: exported but reached only by tests, or by nothing"
	ruleUnset     = "knob rule: exported field that no shipping code sets"
)

// deadAPI applies both rules to the type-checked module.
//
// Dead API: an exported package-level identifier or method declared in a
// non-test file under internal/ is alive when an identifier in a non-test
// file resolves to it; the receiver of one of its own type's methods does
// not count. A method is exempt when its receiver type implements an
// interface that declares it: one declared in the module, or one the
// standard library calls (error, fmt.Stringer and fmt.Formatter, the json
// and text (un)marshalers, io.Reader and io.Writer, context.Context, errors'
// Unwrap/Is/As).
//
// Knob rule: an exported field of a struct type declared in a non-test file
// under internal/ is alive when non-test code writes it: a keyed or
// positional composite literal, an assignment, ++/-- or &x.F. Reads do not
// count, in its own package or elsewhere: a field nothing sets reads its
// zero value. Nor does its own package defaulting a by-value parameter of
// the struct type (see defaulting). A struct with any field tag is a
// serialized format and is exempt.
func deadAPI(t *testing.T, s *shipped) []finding {
	t.Helper()
	info := s.info
	recvIdents := map[*ast.Ident]bool{}
	type decl struct {
		obj types.Object
		key string
	}
	var decls []decl
	var fields []decl
	for _, f := range s.files {
		pkg := internalPkg(f.rel)
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if ok && fd.Recv != nil {
				recvIdents[recvIdent(fd.Recv.List[0].Type)] = true
			}
			if pkg == "" {
				continue
			}
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				key := pkg + "." + d.Name.Name
				if d.Recv != nil {
					key = pkg + "." + recvIdent(d.Recv.List[0].Type).Name + "." + d.Name.Name
				}
				decls = append(decls, decl{info.Defs[d.Name], key})
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							decls = append(decls, decl{info.Defs[sp.Name], pkg + "." + sp.Name.Name})
						}
						st, ok := sp.Type.(*ast.StructType)
						if !ok || tagged(st) {
							continue
						}
						for _, fl := range st.Fields.List {
							for _, n := range fl.Names {
								if n.IsExported() {
									fields = append(fields, decl{info.Defs[n], pkg + "." + sp.Name.Name + "." + n.Name})
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if n.IsExported() {
								decls = append(decls, decl{info.Defs[n], pkg + "." + n.Name})
							}
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for id, obj := range info.Uses {
		if !recvIdents[id] {
			used[origin(obj)] = true
		}
	}
	params := map[*types.Var]bool{}
	for _, f := range s.files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			var lists []*ast.FieldList
			switch n := n.(type) {
			case *ast.FuncDecl:
				lists = []*ast.FieldList{n.Recv, n.Type.Params}
			case *ast.FuncLit:
				lists = []*ast.FieldList{n.Type.Params}
			}
			for _, l := range lists {
				if l == nil {
					continue
				}
				for _, fl := range l.List {
					for _, n := range fl.Names {
						if v, ok := info.Defs[n].(*types.Var); ok {
							params[v] = true
						}
					}
				}
			}
			return true
		})
	}
	written := map[types.Object]bool{}
	write := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.SelectorExpr:
				if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal && !defaulting(info, params, x, sel) {
					written[origin(sel.Obj())] = true
				}
			}
			return
		}
	}
	for _, f := range s.files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				st, ok := info.Types[n].Type.Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for i, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if obj := info.Uses[kv.Key.(*ast.Ident)]; obj != nil {
							written[origin(obj)] = true
						}
					} else {
						written[origin(st.Field(i))] = true
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					write(l)
				}
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					write(n.Key)
					if n.Value != nil {
						write(n.Value)
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					write(n.X)
				}
			}
			return true
		})
	}

	ifaces := calledInterfaces(t, s)
	var out []finding
	pos := func(obj types.Object) string {
		p := fset.Position(obj.Pos())
		return fmt.Sprintf("%s:%d", filepath.ToSlash(p.Filename), p.Line)
	}
	for _, d := range decls {
		if used[d.obj] || exemptMethod(d.obj, ifaces) {
			continue
		}
		out = append(out, finding{d.key, pos(d.obj), ruleUnreached})
	}
	for _, d := range fields {
		if !written[d.obj] {
			out = append(out, finding{d.key, pos(d.obj), ruleUnset})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// calledInterfaces are the interfaces through which a method is called
// without naming it: every interface type declared in the module's
// shipping code, and the standard library's.
func calledInterfaces(t *testing.T, s *shipped) []*types.Interface {
	t.Helper()
	var out []*types.Interface
	for _, pkg := range s.pkgs {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					out = append(out, it)
				}
			}
		}
	}
	std := map[string][]string{
		"fmt":           {"Stringer", "Formatter"},
		"encoding/json": {"Marshaler", "Unmarshaler"},
		"encoding":      {"TextMarshaler", "TextUnmarshaler"},
		"io":            {"Reader", "Writer"},
		"context":       {"Context"},
	}
	for p, names := range std {
		pkg, err := s.std.Import(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			out = append(out, pkg.Scope().Lookup(n).Type().Underlying().(*types.Interface))
		}
	}
	errT := types.Universe.Lookup("error").Type()
	anyT := types.Universe.Lookup("any").Type()
	method := func(name string, params, results []types.Type) *types.Interface {
		vars := func(ts []types.Type) *types.Tuple {
			vs := make([]*types.Var, len(ts))
			for i, t := range ts {
				vs[i] = types.NewParam(token.NoPos, nil, "", t)
			}
			return types.NewTuple(vs...)
		}
		sig := types.NewSignatureType(nil, nil, nil, vars(params), vars(results), false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
	}
	boolT := types.Typ[types.Bool]
	return append(out,
		errT.Underlying().(*types.Interface),
		method("Unwrap", nil, []types.Type{errT}),
		method("Is", []types.Type{errT}, []types.Type{boolT}),
		method("As", []types.Type{anyT}, []types.Type{boolT}))
}

// exemptMethod reports whether obj is a method that an interface in ifaces
// declares and its receiver type implements.
func exemptMethod(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	T := recv.Type()
	if p, ok := T.(*types.Pointer); ok {
		T = p.Elem()
	}
	for _, it := range ifaces {
		if !declares(it, fn.Name()) {
			continue
		}
		if types.Implements(T, it) || types.Implements(types.NewPointer(T), it) {
			return true
		}
	}
	return false
}

func declares(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// defaulting reports whether the field write x is a package filling in its
// own default on a copy of its config: x's base is a parameter (or value
// receiver) of the struct type itself, not a pointer to it, declared in the
// field's own package. Such a write sets nothing a caller chose.
func defaulting(info *types.Info, params map[*types.Var]bool, x *ast.SelectorExpr, sel *types.Selection) bool {
	id, ok := ast.Unparen(x.X).(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || !params[v] || v.Pkg() != sel.Obj().Pkg() {
		return false
	}
	_, ptr := v.Type().(*types.Pointer)
	return !ptr && types.Identical(v.Type(), sel.Recv())
}

// tagged reports whether any field of st carries a tag.
func tagged(st *ast.StructType) bool {
	for _, f := range st.Fields.List {
		if f.Tag != nil {
			return true
		}
	}
	return false
}

// recvIdent is the type name of a method receiver (*T, T or T[P]).
func recvIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			panic(fmt.Sprintf("receiver type %T", e))
		}
	}
}

// TestNoDeadAPI fails on every finding of deadAPI's two rules that
// deadAPIAllowlist does not name, each reported at its declaration with its
// rule, and on an allowlist entry that is no longer dead.
func TestNoDeadAPI(t *testing.T) {
	found := deadAPI(t, typeCheckModule(t))
	dead := map[string]bool{}
	unlisted := 0
	for _, f := range found {
		dead[f.key] = true
		if reason, ok := deadAPIAllowlist[f.key]; ok {
			t.Logf("allowlisted: %s (%s)", f.key, reason)
			continue
		}
		unlisted++
		t.Errorf("%s: %s: %s", f.pos, f.key, f.rule)
	}
	if unlisted > 0 {
		t.Errorf("%d dead exported identifier(s) and field(s), %d not on the allowlist: delete each with the tests that only test it",
			len(found), unlisted)
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
