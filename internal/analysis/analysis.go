// Package analysis is lbvet's engine: a stdlib-only static-analysis
// driver (go/ast + go/parser + go/types + go/build, no go/packages)
// with project-specific analyzers that machine-check the invariants
// this reproduction otherwise enforces only by comment and review.
//
// The engine has two layers. The syntactic layer walks type-checked
// ASTs directly; the dataflow layer (cfg.go, taint.go) builds a
// per-function control-flow graph and runs forward taint propagation
// through assignments, composite literals and in-package call
// summaries, so a value can be followed through locals and helpers
// instead of only matched at its use site. Analyzers share one set of
// per-package facts (concurrent regions, CFGs, call summaries, hotpath
// annotations) through the Pass.
//
// The analyzers:
//
//   - randcontract: the sim.Engine.Rand single-goroutine contract —
//     no engine RNG (or any captured *math/rand.Rand or
//     *faults.Injector) used inside a `go` statement or a par worker
//     callback.
//   - nondeterminism: the deterministic packages (sim, core, lbnode,
//     protocol, ktree, exp, workload, faults) must not read wall
//     clocks, the global math/rand source, or feed results from
//     unordered map iteration (syntactic layer).
//   - detflow: the dataflow upgrade of nondeterminism — values derived
//     from map-range order or pointer identity must not reach returns,
//     channel sends, engine events or metric outputs unless they pass
//     through a recognized canonicalizer (a sort, a canonicalizing
//     helper) first, even when laundered through locals and in-package
//     helper calls.
//   - identcompare: no raw </>/- arithmetic on ident.ID outside
//     internal/ident — it silently breaks at the 2^32 ring wrap; use
//     Dist/Between/Region instead.
//   - metricsguard: metric registry calls on hot paths stay behind the
//     nil-registry guard pattern established by the metrics layer.
//   - layercheck: the layer boundaries, as a rule table. The
//     runtime-agnostic protocol core (internal/lbnode) must not import
//     sim, faults, par or wire, and must not spawn goroutines —
//     executors own delivery and concurrency. The transport
//     (internal/wire) must not import sim or protocol — it moves
//     opaque frames below every executor, though its own goroutines
//     are legitimate.
//   - lockguard: guarded-field inference for the concurrent packages
//     (livenet, metrics) — a struct field written under
//     mu.Lock() anywhere must be accessed under the same mutex
//     everywhere, catching races -race only sees when the schedule
//     cooperates.
//   - hotalloc: allocation-causing constructs (fmt formatting, make,
//     map/slice literals, closures, interface boxing, growing appends)
//     inside functions annotated //lbvet:hotpath.
//   - floatorder: non-associative float accumulation merged in
//     worker-completion order (captured float += inside go statements
//     or par worker callbacks) instead of deterministic task order.
//
// Findings can be suppressed with an annotation on the same line or
// the line immediately above:
//
//	//lbvet:ignore <analyzer> <reason>
//
// The reason is mandatory; an ignore without one, or one naming an
// analyzer that is not registered, is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer checks one invariant over a type-checked package.
type Analyzer struct {
	// Name is the analyzer's identifier, used in reports and in
	// lbvet:ignore annotations.
	Name string
	// Doc is a one-line description for `lbvet -help`.
	Doc string
	// Scope restricts the analyzer to packages whose import path ends
	// with one of the listed suffixes (testdata fixtures are always in
	// scope so golden files exercise the rules directly). Empty means
	// every package.
	Scope []string
	// Exclude lists package suffixes the analyzer skips even when they
	// match Scope — the package that owns the invariant's internals.
	Exclude []string
	// Run inspects the package and reports findings through pass.
	Run func(pass *Pass)
}

// appliesTo reports whether the analyzer runs over the package at path.
func (a *Analyzer) appliesTo(path string) bool {
	for _, s := range a.Exclude {
		if hasPathSuffix(path, s) {
			return false
		}
	}
	if len(a.Scope) == 0 {
		return true
	}
	return pkgInScope(path, a.Scope)
}

// pkgInScope reports whether the package path matches one of the listed
// suffixes. Analyzer test fixtures (anything under a testdata tree) are
// always in scope so golden files exercise the rules directly.
func pkgInScope(path string, suffixes []string) bool {
	if strings.Contains(path, "/testdata/") {
		return true
	}
	for _, s := range suffixes {
		if hasPathSuffix(path, s) {
			return true
		}
	}
	return false
}

// Pass carries one type-checked package through an analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the package's import path ("p2plb/internal/sim").
	Path string
	// Files are the parsed source files, including in-package tests.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	facts    *packageFacts
	findings *[]Finding
}

// packageFacts caches structures derived once per package and shared by
// every analyzer that runs over it: concurrent regions (randcontract,
// floatorder), per-function CFGs and call summaries (detflow), and the
// set of //lbvet:hotpath-annotated functions (hotalloc). Each package
// is analyzed by a single goroutine, so lazy plain-map caching is safe.
type packageFacts struct {
	regions   map[*ast.File][]concurrentRegion
	cfgs      map[ast.Node]*CFG
	summaries map[*types.Func]*flowSummary
	inSummary map[*types.Func]bool
	hotpaths  map[*ast.File]map[ast.Node]bool
}

func newFacts() *packageFacts {
	return &packageFacts{
		regions:   make(map[*ast.File][]concurrentRegion),
		cfgs:      make(map[ast.Node]*CFG),
		summaries: make(map[*types.Func]*flowSummary),
		inSummary: make(map[*types.Func]bool),
		hotpaths:  make(map[*ast.File]map[ast.Node]bool),
	}
}

// ConcurrentRegions returns (building on first use) the source
// intervals of file that execute on spawned goroutines: `go` statement
// bodies and function-literal callbacks handed to internal/par.
func (p *Pass) ConcurrentRegions(file *ast.File) []concurrentRegion {
	if r, ok := p.facts.regions[file]; ok {
		return r
	}
	r := collectConcurrentRegions(p, file)
	p.facts.regions[file] = r
	return r
}

// FuncCFG returns (building on first use) the control-flow graph of a
// function declaration or literal.
func (p *Pass) FuncCFG(fn ast.Node) *CFG {
	if g, ok := p.facts.cfgs[fn]; ok {
		return g
	}
	g := buildCFG(funcBody(fn))
	p.facts.cfgs[fn] = g
	return g
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Finding is one reported invariant violation.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// All returns the analyzers in the order lbvet runs them.
func All() []*Analyzer {
	return []*Analyzer{
		RandContract,
		Nondeterminism,
		Detflow,
		IdentCompare,
		MetricsGuard,
		Layercheck,
		Lockguard,
		Hotalloc,
		Floatorder,
	}
}

// ByName resolves a comma-separated analyzer list ("all" or "" means
// every analyzer).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" || names == "all" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// ignoreDirective is one parsed //lbvet:ignore comment.
type ignoreDirective struct {
	analyzer string
	reason   string
	pos      token.Position
	used     bool
}

const ignorePrefix = "//lbvet:ignore"

// collectIgnores parses the lbvet:ignore annotations of a file into a
// map from the source line they apply to (their own line, which also
// covers the line below for standalone comments) to directives.
func collectIgnores(fset *token.FileSet, f *ast.File) []*ignoreDirective {
	var out []*ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
			name, reason, _ := strings.Cut(rest, " ")
			out = append(out, &ignoreDirective{
				analyzer: name,
				reason:   strings.TrimSpace(reason),
				pos:      fset.Position(c.Pos()),
			})
		}
	}
	return out
}

// registeredNames is the set of analyzer names a lbvet:ignore may
// legitimately reference.
func registeredNames() map[string]bool {
	names := make(map[string]bool)
	for _, a := range All() {
		names[a.Name] = true
	}
	return names
}

// Filter drops findings suppressed by lbvet:ignore annotations in files
// and reports malformed annotations — missing reason, unknown analyzer
// name — as findings of the pseudo-analyzer "lbvet" (those cannot be
// suppressed). It returns the surviving findings sorted by position.
func Filter(fset *token.FileSet, files []*ast.File, findings []Finding) []Finding {
	var directives []*ignoreDirective
	for _, f := range files {
		directives = append(directives, collectIgnores(fset, f)...)
	}
	var out []Finding
	for _, fd := range findings {
		suppressed := false
		for _, d := range directives {
			if d.analyzer != fd.Analyzer || d.reason == "" {
				continue
			}
			if d.pos.Filename != fd.Pos.Filename {
				continue
			}
			// An annotation covers its own line (trailing comment) and
			// the line immediately below (standalone comment line).
			if d.pos.Line == fd.Pos.Line || d.pos.Line == fd.Pos.Line-1 {
				d.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, fd)
		}
	}
	known := registeredNames()
	for _, d := range directives {
		switch {
		case d.analyzer == "":
			out = append(out, Finding{
				Analyzer: "lbvet",
				Pos:      d.pos,
				Message:  "lbvet:ignore needs an analyzer name and a reason",
			})
		case !known[d.analyzer]:
			out = append(out, Finding{
				Analyzer: "lbvet",
				Pos:      d.pos,
				Message:  fmt.Sprintf("lbvet:ignore names unknown analyzer %q (see lbvet -list); stale annotations must be deleted or renamed", d.analyzer),
			})
		case d.reason == "":
			out = append(out, Finding{
				Analyzer: "lbvet",
				Pos:      d.pos,
				Message:  fmt.Sprintf("lbvet:ignore %s needs a justification (//lbvet:ignore %s <reason>)", d.analyzer, d.analyzer),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out
}

// RunAnalyzers runs each in-scope analyzer over the pass's package,
// sharing one set of package facts, and returns the ignore-filtered
// findings.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Finding {
	var raw []Finding
	facts := newFacts()
	for _, a := range analyzers {
		if !a.appliesTo(pkg.Path) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Path:     pkg.Path,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			facts:    facts,
			findings: &raw,
		}
		a.Run(pass)
	}
	return Filter(pkg.Fset, pkg.Files, raw)
}

// ---- shared type helpers ----

// isPtrToPkgType reports whether t is a pointer to a named type
// declared in the package whose import path ends with pkgSuffix.
// An empty name matches any type of that package.
func isPtrToPkgType(t types.Type, pkgSuffix, name string) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	return isPkgType(ptr.Elem(), pkgSuffix, name)
}

// isPkgType reports whether t is the named type pkgSuffix.name (the
// package is matched by import-path suffix so testdata fixtures and
// the real module both resolve).
func isPkgType(t types.Type, pkgSuffix, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	if !hasPathSuffix(obj.Pkg().Path(), pkgSuffix) {
		return false
	}
	return name == "" || obj.Name() == name
}

// hasPathSuffix reports whether path equals suffix or ends in
// "/"+suffix (import-path-segment-aware suffix match).
func hasPathSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// calleeFunc resolves a called expression to the *types.Func it
// invokes, or nil for non-function calls (conversions, built-ins, func
// values).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// methodOn reports whether fn is the method recvPkgSuffix.recvType.name
// (pointer or value receiver).
func methodOn(fn *types.Func, recvPkgSuffix, recvType, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	return isPkgType(rt, recvPkgSuffix, recvType)
}

// methodOnType reports whether fn is any method of
// recvPkgSuffix.recvType.
func methodOnType(fn *types.Func, recvPkgSuffix, recvType string) bool {
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	return isPkgType(rt, recvPkgSuffix, recvType)
}

// rootIdent walks to the leftmost identifier of a selector/index/paren
// chain (v, v.f, v.f[i].g → v). It returns nil when the chain is rooted
// in something else (call result, literal).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// funcBody returns the body of a function declaration or literal (nil
// for bodyless declarations).
func funcBody(fn ast.Node) *ast.BlockStmt {
	switch x := fn.(type) {
	case *ast.FuncDecl:
		return x.Body
	case *ast.FuncLit:
		return x.Body
	}
	return nil
}
