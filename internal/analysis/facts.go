package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The interprocedural facts engine. Where the original six analyzers
// judge one package's syntax in isolation, the engine computes
// per-function summaries — *facts* — that cross package boundaries the
// way golang.org/x/tools analyzer facts do: a deterministic bottom-up
// walk of the module call graph (condensed into strongly connected
// components so recursion converges in one pass) decides, for every
// function, whether it
//
//   - transitively allocates (Allocates),
//   - transitively reads the host wall clock (ReadsClock),
//   - transitively draws from the runtime-seeded global math/rand
//     source (GlobalRand), or
//   - may spawn a goroutine (Spawns),
//
// and the analyzers built on top (allochot, detflow) consume those
// summaries instead of re-deriving them per call site. The walk is
// order-invariant: nodes, edges and SCC members are processed in sorted
// key order, so the same module produces bit-identical facts no matter
// what order its packages were loaded in (a testing/quick property pins
// this down).
//
// Under the standalone driver the whole module is loaded at once and
// the graph spans every package. Under `go vet -vettool` the driver
// hands us one package per invocation plus the serialized facts of its
// dependencies (the unitchecker PackageVetx/VetxOutput protocol);
// ComputeFacts seeds the walk with the imported facts and the
// per-package result is exported for the packages that import it — the
// same shape x/tools uses, minus the gob encoding.

// FuncFacts is the interprocedural summary of one function. The *Why
// fields carry a one-hop witness: either a concrete source description
// ("append grows ... at file:line") or "calls <key>", which WhyChain
// follows to reconstruct the full call path for diagnostics.
type FuncFacts struct {
	Allocates bool   `json:"allocates,omitempty"`
	AllocWhy  string `json:"alloc_why,omitempty"`

	ReadsClock bool   `json:"reads_clock,omitempty"`
	ClockWhy   string `json:"clock_why,omitempty"`

	GlobalRand bool   `json:"global_rand,omitempty"`
	RandWhy    string `json:"rand_why,omitempty"`

	Spawns   bool   `json:"spawns,omitempty"`
	SpawnWhy string `json:"spawn_why,omitempty"`
}

// Facts maps canonical function keys (FuncKey) to their computed
// summaries. The zero value is empty but usable for lookups.
type Facts struct {
	m map[string]*FuncFacts
}

// Of returns the facts for a canonical function key. Unknown keys —
// functions outside the analyzed set — return the zero summary, which
// callers must treat as "nothing proven", not "proven clean";
// classifyCall is the place that decides what unknown callees mean.
func (f *Facts) Of(key string) FuncFacts {
	if f == nil || f.m == nil {
		return FuncFacts{}
	}
	if ff, ok := f.m[key]; ok {
		return *ff
	}
	return FuncFacts{}
}

// Has reports whether the key was part of the analyzed function set.
func (f *Facts) Has(key string) bool {
	if f == nil || f.m == nil {
		return false
	}
	_, ok := f.m[key]
	return ok
}

// MarshalJSON serializes the fact table deterministically (sorted keys)
// — the vettool export format written to VetxOutput.
func (f *Facts) MarshalJSON() ([]byte, error) {
	ordered := make(map[string]*FuncFacts, len(f.m))
	for k, v := range f.m {
		ordered[k] = v
	}
	return json.Marshal(ordered) // encoding/json sorts map keys
}

// UnmarshalJSON loads a fact table exported by a dependency package.
func (f *Facts) UnmarshalJSON(data []byte) error {
	f.m = map[string]*FuncFacts{}
	return json.Unmarshal(data, &f.m)
}

// Merge copies every entry of other into f (other wins on conflicts —
// dependencies are final by the time their importers are analyzed).
func (f *Facts) Merge(other *Facts) {
	if other == nil {
		return
	}
	if f.m == nil {
		f.m = map[string]*FuncFacts{}
	}
	for k, v := range other.m {
		cp := *v
		f.m[k] = &cp
	}
}

// FuncKey renders a function object's canonical key: "pkgpath.Name" for
// package functions, "pkgpath.Type.Name" for methods (pointer receivers
// drop the star) — the same naming the detwall allowlist already uses,
// so one grammar covers both tables.
func FuncKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	prefix := fn.Pkg().Path() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedOf(sig.Recv().Type()); named != nil {
			return prefix + named.Obj().Name() + "." + fn.Name()
		}
		return "" // interface method or unnamed receiver: no stable key
	}
	return prefix + fn.Name()
}

// DeclKey returns the canonical key of a function declaration in pkg,
// or "" for declarations go/types could not resolve.
func DeclKey(pkg *Package, fd *ast.FuncDecl) string {
	obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	return FuncKey(obj)
}

// funcNode is one call-graph node under construction: a declared
// function body plus everything the direct-effects scan found in it.
type funcNode struct {
	key   string
	fd    *ast.FuncDecl
	pkg   *Package
	calls []string // canonical keys of module-local callees (sorted, deduped)
	facts FuncFacts
}

// ComputeFacts builds the call graph over the module packages in pkgs,
// seeds it with imported facts (dependency summaries under the vettool
// protocol; nil when the whole module is loaded at once) and returns
// the completed fact table covering imported plus local functions.
func ComputeFacts(pkgs []*Package, imported *Facts) *Facts {
	nodes := map[string]*funcNode{}
	for _, pkg := range pkgs {
		if !InModule(pkg.Path) {
			continue
		}
		sup, _ := collectSuppressions(pkg)
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				key := DeclKey(pkg, fd)
				if key == "" {
					continue
				}
				n := &funcNode{key: key, fd: fd, pkg: pkg}
				scanDirectEffects(n, sup)
				nodes[key] = n
			}
		}
	}

	out := &Facts{m: map[string]*FuncFacts{}}
	out.Merge(imported)

	keys := make([]string, 0, len(nodes))
	for k := range nodes {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// Tarjan's SCC over the local nodes. Cross-package edges into
	// already-summarized dependencies are not graph edges — their facts
	// were folded into the node during scanning (classifyCall) or are
	// resolved below from `out`. SCCs pop in reverse topological order
	// (callees before callers), which is exactly the bottom-up order the
	// fixed point needs: by the time an SCC is condensed, every callee
	// outside it already has final facts.
	t := &tarjan{
		nodes: nodes,
		index: map[string]int{},
		low:   map[string]int{},
		on:    map[string]bool{},
	}
	for _, k := range keys {
		if _, seen := t.index[k]; !seen {
			t.strongconnect(k)
		}
	}

	for _, scc := range t.sccs {
		sort.Strings(scc)
		// Union the members' direct facts, then fold in callee facts
		// from outside the SCC. Within the SCC every member reaches
		// every other, so the union applies to all of them.
		var u FuncFacts
		inSCC := map[string]bool{}
		for _, k := range scc {
			inSCC[k] = true
		}
		for _, k := range scc {
			mergeFacts(&u, nodes[k].facts)
			for _, callee := range nodes[k].calls {
				if inSCC[callee] {
					continue
				}
				var cf FuncFacts
				if ff, ok := out.m[callee]; ok {
					cf = *ff
				} else if cn, ok := nodes[callee]; ok {
					// A callee whose SCC has not popped yet can only
					// happen for forward edges into the same SCC run;
					// Tarjan's pop order makes this unreachable, but
					// degrade soundly rather than panic.
					cf = cn.facts
				}
				via := "calls " + callee
				mergeFacts(&u, liftCallee(cf, via))
			}
		}
		for _, k := range scc {
			ff := u
			out.m[k] = &ff
		}
	}
	return out
}

// liftCallee converts a callee's facts into the caller's view: the
// bits survive, the witness becomes the call edge.
func liftCallee(cf FuncFacts, via string) FuncFacts {
	var out FuncFacts
	if cf.Allocates {
		out.Allocates, out.AllocWhy = true, via
	}
	if cf.ReadsClock {
		out.ReadsClock, out.ClockWhy = true, via
	}
	if cf.GlobalRand {
		out.GlobalRand, out.RandWhy = true, via
	}
	if cf.Spawns {
		out.Spawns, out.SpawnWhy = true, via
	}
	return out
}

// mergeFacts ORs src into dst, keeping dst's earlier witnesses (the
// first-found witness in sorted order, so chains are deterministic).
func mergeFacts(dst *FuncFacts, src FuncFacts) {
	if src.Allocates && !dst.Allocates {
		dst.Allocates, dst.AllocWhy = true, src.AllocWhy
	}
	if src.ReadsClock && !dst.ReadsClock {
		dst.ReadsClock, dst.ClockWhy = true, src.ClockWhy
	}
	if src.GlobalRand && !dst.GlobalRand {
		dst.GlobalRand, dst.RandWhy = true, src.RandWhy
	}
	if src.Spawns && !dst.Spawns {
		dst.Spawns, dst.SpawnWhy = true, src.SpawnWhy
	}
}

// WhyChain reconstructs the witness path behind one fact bit: starting
// from key, it follows "calls <next>" links through the fact table and
// returns the hops joined with " -> ", ending at the concrete source
// description. pick selects which fact's witness to follow.
func (f *Facts) WhyChain(key string, pick func(FuncFacts) string) string {
	var hops []string
	seen := map[string]bool{}
	for key != "" && !seen[key] {
		seen[key] = true
		hops = append(hops, key)
		why := pick(f.Of(key))
		next, ok := strings.CutPrefix(why, "calls ")
		if !ok {
			if why != "" {
				hops = append(hops, why)
			}
			break
		}
		key = next
	}
	return strings.Join(hops, " -> ")
}

// tarjan is the classic iterative-enough (recursion depth = call-graph
// depth, fine for a module of this size) SCC computation.
type tarjan struct {
	nodes map[string]*funcNode
	index map[string]int
	low   map[string]int
	on    map[string]bool
	stack []string
	next  int
	sccs  [][]string
}

func (t *tarjan) strongconnect(v string) {
	t.index[v] = t.next
	t.low[v] = t.next
	t.next++
	t.stack = append(t.stack, v)
	t.on[v] = true

	for _, w := range t.nodes[v].calls {
		if _, local := t.nodes[w]; !local {
			continue // summarized dependency, not a graph node
		}
		if _, seen := t.index[w]; !seen {
			t.strongconnect(w)
			if t.low[w] < t.low[v] {
				t.low[v] = t.low[w]
			}
		} else if t.on[w] && t.index[w] < t.low[v] {
			t.low[v] = t.index[w]
		}
	}

	if t.low[v] == t.index[v] {
		var scc []string
		for {
			w := t.stack[len(t.stack)-1]
			t.stack = t.stack[:len(t.stack)-1]
			t.on[w] = false
			scc = append(scc, w)
			if w == v {
				break
			}
		}
		t.sccs = append(t.sccs, scc)
	}
}

// nonAllocCalls lists standard-library calls the engine trusts not to
// allocate: the synchronisation, atomics and arithmetic the hot paths
// lean on. Everything outside this table (and outside the module, whose
// bodies we can read) is conservatively assumed to allocate — the
// unknown-callee default that keeps allochot sound.
var nonAllocCalls = map[string]bool{
	"sync.Mutex.Lock":        true,
	"sync.Mutex.Unlock":      true,
	"sync.Mutex.TryLock":     true,
	"sync.RWMutex.Lock":      true,
	"sync.RWMutex.Unlock":    true,
	"sync.RWMutex.RLock":     true,
	"sync.RWMutex.RUnlock":   true,
	"sync.Cond.Signal":       true,
	"sync.Cond.Broadcast":    true,
	"sync.Cond.Wait":         true,
	"sync.WaitGroup.Add":     true,
	"sync.WaitGroup.Done":    true,
	"sync.WaitGroup.Wait":    true,
	"sync.Once.Do":           true, // the Do machinery; f itself is a separate call
	"sync.Pool.Put":          true, // per-P pad allocated once, amortised away
	"sort.Search":            true,
	"sort.SearchInts":        true,
	"sort.SearchFloat64s":    true,
	"sort.SearchStrings":     true,
	"math/bits.Len64":        true,
	"math/bits.Len32":        true,
	"math/bits.Len":          true,
	"math/bits.OnesCount64":  true,
	"math/bits.LeadingZeros": true,
	"errors.Is":              true,
	"errors.As":              false, // reflects; keep explicit for readers
}

// nonAllocPkgs are packages whose every function is allocation-free for
// our purposes: pure arithmetic on machine words.
var nonAllocPkgs = map[string]bool{
	"math":        true,
	"sync/atomic": true,
}

// clockSourceCalls are the wall-clock sources (shared with detwall).
func isClockSource(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "time" && detwallForbidden[fn.Name()]
}

// isGlobalRand reports whether fn is a package-level math/rand function
// (the runtime-seeded shared source).
func isGlobalRand(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
	default:
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	switch fn.Name() {
	case "New", "NewSource", "NewPCG", "NewChaCha8":
		// Constructors are the *seeded* escape hatch; detrand audits
		// their seed expressions separately.
		return false
	}
	return true
}

// stdlibCallKey renders an out-of-module callee as "pkg.Name" /
// "pkg.Type.Name" for the nonAlloc tables.
func stdlibCallKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name() // builtin-ish; callers handle separately
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedOf(sig.Recv().Type()); named != nil {
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// scanDirectEffects walks one function body recording its direct facts
// and module-local call edges. Allocation sites whose line carries an
// allochot suppression are treated as audited-amortised and do not set
// the Allocates bit (the allow reason is the proof the budget gate
// leans on); clock sources under a detwall/detflow allow or in the
// embedded detwall allowlist likewise do not taint the clock fact.
func scanDirectEffects(n *funcNode, sup map[suppression]bool) {
	pass := n.pkg
	allowed := func(node ast.Node, analyzer string) bool {
		p := pass.Fset.Position(node.Pos())
		return sup[suppression{file: p.Filename, line: p.Line, analyzer: analyzer}]
	}
	at := func(node ast.Node) string { return shortAt(pass.Fset, node) }
	setAlloc := func(node ast.Node, why string) {
		if n.facts.Allocates || allowed(node, Allochot.Name) {
			return
		}
		n.facts.Allocates = true
		n.facts.AllocWhy = why + " at " + at(node)
	}
	calls := map[string]bool{}

	w := &allocWalker{
		fset:  pass.Fset,
		info:  pass.Info,
		tpkg:  pass.Types,
		alloc: setAlloc,
		spawn: func(g *ast.GoStmt) {
			if !n.facts.Spawns {
				n.facts.Spawns = true
				n.facts.SpawnWhy = "go statement at " + at(g)
			}
		},
		localCall: func(call *ast.CallExpr, fn *types.Func, key string) {
			calls[key] = true
		},
		source: func(call *ast.CallExpr, fn *types.Func) {
			if isClockSource(fn) && !n.facts.ReadsClock &&
				!allowed(call, Detflow.Name) && !allowed(call, Detwall.Name) {
				if _, exempt := detwallAllow[n.key]; !exempt {
					n.facts.ReadsClock = true
					n.facts.ClockWhy = "time." + fn.Name() + " at " + at(call)
				}
			}
			if isGlobalRand(fn) && !n.facts.GlobalRand {
				n.facts.GlobalRand = true
				n.facts.RandWhy = fn.Pkg().Path() + "." + fn.Name() + " at " + at(call)
			}
		},
	}
	w.walk(n.fd.Body)

	n.calls = make([]string, 0, len(calls))
	for k := range calls {
		n.calls = append(n.calls, k)
	}
	sort.Strings(n.calls)
}

// allocWalker enumerates the potential allocation sites, call edges and
// nondeterminism sources of one function body. It is shared by the
// facts engine (which folds sites into a per-function summary) and by
// allochot (which reports every site inside a hot function).
type allocWalker struct {
	fset *token.FileSet
	info *types.Info
	tpkg *types.Package

	// alloc receives every potential allocation site with a reason.
	alloc func(node ast.Node, why string)
	// localCall receives every resolved module-local callee.
	localCall func(call *ast.CallExpr, fn *types.Func, key string)
	// source receives every resolved callee (the clock/rand hook);
	// may be nil.
	source func(call *ast.CallExpr, fn *types.Func)
	// spawn receives go statements; may be nil.
	spawn func(g *ast.GoStmt)
}

func (w *allocWalker) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(node ast.Node) bool {
		switch v := node.(type) {
		case *ast.GoStmt:
			if w.spawn != nil {
				w.spawn(v)
			}
			w.alloc(v, "go statement allocates a goroutine")
		case *ast.FuncLit:
			if capturesOuter(w.info, w.tpkg, v) {
				w.alloc(v, "capturing function literal allocates a closure")
			}
		case *ast.CompositeLit:
			if t := w.info.TypeOf(v); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					w.alloc(v, "composite literal allocates a "+describeComposite(t))
				}
			}
		case *ast.BinaryExpr:
			if v.Op == token.ADD {
				if t := w.info.TypeOf(v); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						if tv, ok := w.info.Types[v]; !ok || tv.Value == nil {
							w.alloc(v, "string concatenation builds a new string")
						}
					}
				}
			}
		case *ast.CallExpr:
			if isPanicCall(w.info, v) {
				// panic arguments are terminal cold paths: the
				// allocation of the panic value never appears in a
				// completed hot-path operation, so neither the boxing
				// nor any fmt call inside taints the summary.
				return false
			}
			w.walkCall(v)
		}
		return true
	})
}

// walkCall classifies one call expression: builtin allocators,
// conversions, module-local edges, known-clean stdlib, and the
// conservative unknown-callee default.
func (w *allocWalker) walkCall(call *ast.CallExpr) {
	// Builtins and conversions first: calleeObj only resolves declared
	// functions.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := w.info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				w.alloc(call, "append may grow its backing array")
			case "make":
				w.alloc(call, "make allocates")
			case "new":
				w.alloc(call, "new allocates")
			}
			return
		}
	}
	if tv, ok := w.info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		// Conversion: string <-> []byte/[]rune copies; numeric
		// conversions don't.
		if t := w.info.TypeOf(call.Fun); t != nil && len(call.Args) == 1 {
			if isStringByteConversion(t, w.info.TypeOf(call.Args[0])) {
				w.alloc(call, "string/[]byte conversion copies")
			}
		}
		return
	}

	fn := calleeObj(w.info, call)
	if fn == nil {
		// Indirect call through a function value: unknowable statically.
		w.alloc(call, "indirect call (unknown allocation behaviour)")
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if recvT := sig.Recv().Type(); recvT != nil && types.IsInterface(recvT) {
			w.alloc(call, "interface method call (dynamic dispatch, unknown allocation behaviour)")
			return
		}
	}
	if sig, ok := fn.Type().(*types.Signature); ok {
		if arg, param := boxedArg(w.info, call, sig); arg != nil {
			w.alloc(arg, "argument boxed into interface parameter "+param)
		}
	}

	if w.source != nil {
		w.source(call, fn)
	}

	if fn.Pkg() != nil && InModule(fn.Pkg().Path()) {
		if key := FuncKey(fn); key != "" && w.localCall != nil {
			w.localCall(call, fn, key)
		}
		return
	}

	// Out-of-module callee: consult the trust tables.
	key := stdlibCallKey(fn)
	if nonAllocCalls[key] || (fn.Pkg() != nil && nonAllocPkgs[fn.Pkg().Path()]) {
		return
	}
	w.alloc(call, "calls "+key+" (assumed to allocate)")
}

// shortAt renders a node's position as "file.go:line" for witnesses.
func shortAt(fset *token.FileSet, node ast.Node) string {
	p := fset.Position(node.Pos())
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}

func describeComposite(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "value"
}

// isPanicCall reports whether call invokes the panic builtin.
func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// capturesOuter reports whether a function literal references a
// variable declared outside itself but inside some enclosing function —
// the capture that forces the closure (and the captured variables) onto
// the heap. References to package-level objects are not captures.
func capturesOuter(info *types.Info, tpkg *types.Package, fl *ast.FuncLit) bool {
	captured := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if captured {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() != tpkg {
			return true
		}
		if v.Parent() == tpkg.Scope() {
			return true // package-level variable, not a capture
		}
		if v.Pos() < fl.Pos() || v.Pos() > fl.End() {
			captured = true
			return false
		}
		return true
	})
	return captured
}

// boxedArg returns the first call argument that is boxed into an
// interface parameter (a heap allocation for non-pointer-shaped
// values), along with the parameter's description; (nil, "") when no
// argument boxes. A `slice...` spread never boxes, nil never boxes, and
// pointer-shaped values (pointers, channels, maps, funcs) ride in the
// interface word directly.
func boxedArg(info *types.Info, call *ast.CallExpr, sig *types.Signature) (ast.Expr, string) {
	params := sig.Params()
	if params.Len() == 0 {
		return nil, ""
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				return nil, "" // spread of an existing slice
			}
			if s, ok := params.At(params.Len() - 1).Type().Underlying().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at.Underlying()) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		if pointerShaped(at) {
			continue
		}
		name := "any"
		if named := namedOf(pt); named != nil {
			name = named.Obj().Name()
		}
		return arg, name
	}
	return nil, ""
}

// pointerShaped reports whether values of t fit an interface's data
// word without allocation.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// isStringByteConversion reports whether a conversion between to and
// from moves bytes between string and []byte/[]rune (an allocating
// copy in either direction).
func isStringByteConversion(to, from types.Type) bool {
	if from == nil {
		return false
	}
	return (isStringType(to) && isByteOrRuneSlice(from)) ||
		(isByteOrRuneSlice(to) && isStringType(from))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
