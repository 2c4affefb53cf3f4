package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the intraprocedural half of the interprocedural layer
// (facts.go): a conservative taint dataflow over one function body,
// shared by summary computation (which parameters/results carry taint,
// which parameters reach a sink) and by the detflow analyzer's
// diagnostic pass.

// Taint kinds. Each names a way a value can differ between two runs
// started from equal seeds.
const (
	taintOrder uint8 = 1 << iota // derived from Go's randomized map-iteration order
	taintRand                    // non-PRNG randomness: global math/rand, clock, environment, machine
	taintAddr                    // address-dependent: uintptr conversions, %p, reflect pointers
)

func taintWords(kinds uint8) string {
	var parts []string
	if kinds&taintOrder != 0 {
		parts = append(parts, "map-iteration-order")
	}
	if kinds&taintRand != 0 {
		parts = append(parts, "non-PRNG-randomness")
	}
	if kinds&taintAddr != 0 {
		parts = append(parts, "address-dependence")
	}
	if len(parts) == 0 {
		return "determinism"
	}
	return strings.Join(parts, "+")
}

// taintVal is the dataflow's abstract value: the taint kinds the value
// may carry, the enclosing function's parameters that may flow into it
// (meaningful in summary mode, where parameters start with marker bits),
// and the position of the first source, for diagnostics.
type taintVal struct {
	kinds  uint8
	params uint64
	src    token.Pos
}

func (t taintVal) union(o taintVal) taintVal {
	if !t.src.IsValid() {
		t.src = o.src
	}
	t.kinds |= o.kinds
	t.params |= o.params
	return t
}

func (t taintVal) tainted() bool { return t.kinds != 0 || t.params != 0 }

// sendSinkMethods are the *engine.API methods whose arguments become
// messages: a tainted argument makes message bytes (or delivery targets)
// run-dependent, which breaks cross-run and cross-form equivalence.
var sendSinkMethods = map[string]string{
	"Send":         "an api.Send payload",
	"SendID":       "an api.SendID payload",
	"SendInt":      "an api.SendInt fast-lane payload",
	"SendIDInt":    "an api.SendIDInt fast-lane payload",
	"Broadcast":    "an api.Broadcast payload",
	"BroadcastInt": "an api.BroadcastInt fast-lane payload",
}

// machineDependent extends noglobalrand's vertex-code tables with calls
// whose result identifies the process or host rather than the run.
var machineDependent = map[string]map[string]bool{
	"os": {"Getpid": true, "Hostname": true, "Getwd": true},
}

// taintScope runs the dataflow over one function body. Two modes share
// the walker:
//
//   - summary mode (summary != nil): parameters start with per-parameter
//     marker bits; return statements and sink hits fold into the
//     FuncSummary under construction.
//   - diagnostic mode (report != nil): parameters start clean; a
//     source-tainted value reaching a sink is reported at the sink
//     argument.
//
// The body is walked twice — a quiet pass to reach the loop-carried
// fixed point, then a reporting pass — so diagnostics fire exactly once.
type taintScope struct {
	info  *types.Info
	fset  *token.FileSet
	facts *Facts

	sig        *types.Signature
	progShaped bool // returns are Program outputs (Result.Output sinks)
	// params maps parameter objects (receiver first) to their index;
	// populated only in summary mode.
	params map[types.Object]int
	vars   map[types.Object]taintVal

	inMapRange int
	quiet      bool

	summary *FuncSummary
	report  func(pos token.Pos, sink string, tv taintVal)
}

func (s *taintScope) run(body *ast.BlockStmt) {
	s.quiet = true
	s.stmts(body.List)
	s.quiet = false
	s.stmts(body.List)
}

// sink folds a value arriving at a determinism sink into the current
// mode: summary mode records which parameters forward to the sink,
// diagnostic mode reports source-tainted arrivals.
func (s *taintScope) sink(pos token.Pos, desc string, tv taintVal) {
	if s.summary != nil {
		for i := 0; i < s.summary.params; i++ {
			if tv.params&(1<<uint(i)) != 0 && s.summary.sinkParams[i] == "" {
				s.summary.sinkParams[i] = desc
			}
		}
	}
	if s.report != nil && !s.quiet && tv.kinds != 0 {
		s.report(pos, desc, tv)
	}
}

func (s *taintScope) setVar(obj types.Object, tv taintVal) {
	if old, ok := s.vars[obj]; ok {
		tv = old.union(tv)
	}
	s.vars[obj] = tv
}

func (s *taintScope) stmts(list []ast.Stmt) {
	for _, st := range list {
		s.stmt(st)
	}
}

func (s *taintScope) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.AssignStmt:
		s.assign(st)
	case *ast.ExprStmt:
		s.exprTaint(st.X)
		s.sanitizeCall(st.X)
	case *ast.ReturnStmt:
		s.ret(st)
	case *ast.IfStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		s.exprTaint(st.Cond)
		s.stmts(st.Body.List)
		if st.Else != nil {
			s.stmt(st.Else)
		}
	case *ast.BlockStmt:
		s.stmts(st.List)
	case *ast.ForStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		if st.Cond != nil {
			s.exprTaint(st.Cond)
		}
		s.stmts(st.Body.List)
		if st.Post != nil {
			s.stmt(st.Post)
		}
	case *ast.RangeStmt:
		s.rangeStmt(st)
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		if st.Tag != nil {
			s.exprTaint(st.Tag)
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			for _, v := range cc.List {
				s.exprTaint(v)
			}
			s.stmts(cc.Body)
		}
	case *ast.TypeSwitchStmt:
		s.typeSwitch(st)
	case *ast.DeclStmt:
		s.declStmt(st)
	case *ast.DeferStmt:
		s.exprTaint(st.Call)
	case *ast.GoStmt:
		s.exprTaint(st.Call)
	case *ast.LabeledStmt:
		s.stmt(st.Stmt)
	case *ast.SendStmt:
		s.exprTaint(st.Chan)
		s.exprTaint(st.Value)
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				s.stmt(cc.Comm)
			}
			s.stmts(cc.Body)
		}
	case *ast.IncDecStmt, *ast.BranchStmt, *ast.EmptyStmt:
		// no dataflow
	}
}

func (s *taintScope) rangeStmt(rs *ast.RangeStmt) {
	base := s.exprTaint(rs.X)
	_, overMap := typeUnder(s.info.TypeOf(rs.X)).(*types.Map)
	// Iteration variables inherit the ranged value's taint. Map-iteration
	// ORDER is tracked at the aggregation points (appends inside the
	// body), not on single elements: one element's value is order-free,
	// and per-element effects are detorder's jurisdiction.
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok {
			if obj := s.info.Defs[id]; obj != nil {
				s.setVar(obj, base)
			}
		}
	}
	if overMap {
		s.inMapRange++
	}
	s.stmts(rs.Body.List)
	if overMap {
		s.inMapRange--
	}
}

func (s *taintScope) typeSwitch(st *ast.TypeSwitchStmt) {
	if st.Init != nil {
		s.stmt(st.Init)
	}
	var base taintVal
	switch a := st.Assign.(type) {
	case *ast.AssignStmt:
		base = s.exprTaint(a.Rhs[0])
	case *ast.ExprStmt:
		base = s.exprTaint(a.X)
	}
	for _, c := range st.Body.List {
		cc := c.(*ast.CaseClause)
		if obj := s.info.Implicits[cc]; obj != nil {
			s.setVar(obj, base)
		}
		s.stmts(cc.Body)
	}
}

func (s *taintScope) declStmt(st *ast.DeclStmt) {
	gd, ok := st.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			if i >= len(vs.Values) {
				break
			}
			tv := s.exprTaint(vs.Values[i])
			if obj := s.info.Defs[name]; obj != nil {
				s.vars[obj] = tv
			}
		}
	}
}

func (s *taintScope) assign(st *ast.AssignStmt) {
	if len(st.Lhs) > 1 && len(st.Rhs) == 1 {
		// Tuple assignment: coarse — every destination carries the union
		// of the call's per-result taints.
		tv := s.exprTaint(st.Rhs[0])
		for _, lhs := range st.Lhs {
			s.store(lhs, tv, st.Tok)
		}
		return
	}
	for i, lhs := range st.Lhs {
		s.store(lhs, s.exprTaint(st.Rhs[i]), st.Tok)
	}
}

func (s *taintScope) store(lhs ast.Expr, tv taintVal, tok token.Token) {
	lhs = ast.Unparen(lhs)
	// Writing into a Result is a determinism sink: the Result is the
	// observable the equivalence contract compares byte-for-byte.
	if sel, ok := lhs.(*ast.SelectorExpr); ok {
		if isNamed(s.info.TypeOf(sel.X), enginePath, "Result") {
			s.sink(lhs.Pos(), "Result."+sel.Sel.Name, tv)
		}
	}
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		obj := s.info.Defs[id]
		if obj == nil {
			obj = s.info.Uses[id]
		}
		if obj == nil {
			return
		}
		if tok == token.ASSIGN || tok == token.DEFINE {
			s.vars[obj] = tv // strong update: a clean overwrite clears taint
		} else {
			s.setVar(obj, tv) // compound assignment accumulates
		}
		return
	}
	// Index / field / deref store: taint the root object, coarsely.
	if root := rootObj(s.info, lhs); root != nil {
		s.setVar(root, tv)
	}
}

func (s *taintScope) ret(st *ast.ReturnStmt) {
	if len(st.Results) == 0 {
		// Naked return: named results carry their current taints.
		if s.sig == nil {
			return
		}
		for j := 0; j < s.sig.Results().Len(); j++ {
			s.foldReturn(j, s.vars[s.sig.Results().At(j)], st.Pos())
		}
		return
	}
	if s.sig != nil && len(st.Results) == 1 && s.sig.Results().Len() > 1 {
		tv := s.exprTaint(st.Results[0]) // tuple forward
		for j := 0; j < s.sig.Results().Len(); j++ {
			s.foldReturn(j, tv, st.Results[0].Pos())
		}
		return
	}
	for j, e := range st.Results {
		s.foldReturn(j, s.exprTaint(e), e.Pos())
	}
}

func (s *taintScope) foldReturn(j int, tv taintVal, pos token.Pos) {
	if s.summary != nil && j < len(s.summary.results) {
		s.summary.results[j].kinds |= tv.kinds
		s.summary.results[j].fromParams |= tv.params
	}
	if s.progShaped {
		s.sink(pos, "the Program output (broadcast as Final, stored in Result.Output)", tv)
	}
}

// sanitizeCall clears map-iteration-order taint from the arguments of a
// statement-level sorting call: sort.Slice(ks, ...), slices.Sort(ks), a
// local sortInt32(ks) — establishing a canonical order is exactly the
// accepted collect-then-sort idiom.
func (s *taintScope) sanitizeCall(e ast.Expr) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	if !strings.Contains(strings.ToLower(exprString(s.fset, call.Fun)), "sort") {
		return
	}
	for _, a := range call.Args {
		if root := rootObj(s.info, a); root != nil {
			if tv, ok := s.vars[root]; ok {
				tv.kinds &^= taintOrder
				s.vars[root] = tv
			}
		}
	}
}

func (s *taintScope) exprTaint(e ast.Expr) taintVal {
	if e == nil {
		return taintVal{}
	}
	switch e := e.(type) {
	case *ast.Ident:
		if obj := s.info.Uses[e]; obj != nil {
			if tv, ok := s.vars[obj]; ok {
				return tv
			}
			if i, ok := s.params[obj]; ok {
				return taintVal{params: 1 << uint(i), src: e.Pos()}
			}
		}
		return taintVal{}
	case *ast.ParenExpr:
		return s.exprTaint(e.X)
	case *ast.SelectorExpr:
		if _, ok := s.info.Selections[e]; ok {
			// Field read or method value: carries the base's taint.
			return s.exprTaint(e.X)
		}
		// Qualified identifier (pkg.Name).
		if obj := s.info.Uses[e.Sel]; obj != nil {
			if tv, ok := s.vars[obj]; ok {
				return tv
			}
		}
		return taintVal{}
	case *ast.CallExpr:
		return s.call(e)
	case *ast.BinaryExpr:
		return s.exprTaint(e.X).union(s.exprTaint(e.Y))
	case *ast.UnaryExpr:
		return s.exprTaint(e.X)
	case *ast.StarExpr:
		return s.exprTaint(e.X)
	case *ast.IndexExpr:
		return s.exprTaint(e.X).union(s.exprTaint(e.Index))
	case *ast.IndexListExpr:
		return s.exprTaint(e.X)
	case *ast.SliceExpr:
		return s.exprTaint(e.X)
	case *ast.TypeAssertExpr:
		return s.exprTaint(e.X)
	case *ast.CompositeLit:
		var tv taintVal
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				tv = tv.union(s.exprTaint(kv.Value))
			} else {
				tv = tv.union(s.exprTaint(elt))
			}
		}
		// Building a Result from tainted parts is a sink even without a
		// later field write.
		if isNamed(s.info.TypeOf(e), enginePath, "Result") && tv.tainted() {
			s.sink(e.Pos(), "a Result literal", tv)
		}
		return tv
	case *ast.KeyValueExpr:
		return s.exprTaint(e.Value)
	}
	// FuncLit (analyzed as its own function), literals, type expressions.
	return taintVal{}
}

// call handles sources (randomness, clock, addresses, map iterators),
// sinks (API sends, Done, Mix64, summary-recorded forwarding), sanitizers
// (sort-shaped callees), and summary-based propagation, in that order.
func (s *taintScope) call(call *ast.CallExpr) taintVal {
	info := s.info
	// Conversion?
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) != 1 {
			return taintVal{}
		}
		out := s.exprTaint(call.Args[0])
		if b, ok := typeUnder(tv.Type).(*types.Basic); ok && b.Kind() == types.Uintptr {
			if ab, ok := typeUnder(info.TypeOf(call.Args[0])).(*types.Basic); ok && ab.Kind() == types.UnsafePointer {
				out = out.union(taintVal{kinds: taintAddr, src: call.Pos()})
			}
		}
		return out
	}
	// Builtin?
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap":
				// Cardinality is iteration-order-free.
				out := s.exprTaint(call.Args[0])
				out.kinds &^= taintOrder
				return out
			case "append":
				var out taintVal
				for _, a := range call.Args {
					out = out.union(s.exprTaint(a))
				}
				if s.inMapRange > 0 {
					// Appending inside a range-over-map makes the element
					// ORDER iteration-dependent, whatever the elements are.
					out = out.union(taintVal{kinds: taintOrder, src: call.Pos()})
				}
				return out
			default:
				var out taintVal
				for _, a := range call.Args {
					if atv, ok := info.Types[a]; ok && atv.IsType() {
						continue
					}
					out = out.union(s.exprTaint(a))
				}
				return out
			}
		}
	}

	// API send methods: every argument is a sink (payloads become message
	// bytes; neighbor indices become delivery targets).
	if mname, ok := apiMethod(info, call); ok {
		if desc, isSink := sendSinkMethods[mname]; isSink {
			for _, a := range call.Args {
				s.sink(a.Pos(), desc, s.exprTaint(a))
			}
			return taintVal{}
		}
	}

	fn, _ := calleeObj(info, call).(*types.Func)
	path, name := "", ""
	pkgLevel := false
	if fn != nil && fn.Pkg() != nil {
		path, name = fn.Pkg().Path(), fn.Name()
		if sig, ok := fn.Type().(*types.Signature); ok {
			// Methods keep path = defining package; the randomness tables
			// only name package-level functions (rng.Intn on a seeded
			// *rand.Rand is deterministic, math/rand.Intn is not).
			pkgLevel = sig.Recv() == nil
		}
	}

	// Engine-level sinks.
	if path == enginePath && name == "Done" && len(call.Args) == 1 {
		s.sink(call.Args[0].Pos(), "the step output (Result.Output via Done)", s.exprTaint(call.Args[0]))
		return taintVal{}
	}
	if path == enginePath && name == "Mix64" && len(call.Args) == 1 {
		atv := s.exprTaint(call.Args[0])
		s.sink(call.Args[0].Pos(), "adversary hashing (Mix64)", atv)
		return atv // a hash of a deterministic input is deterministic
	}

	// Sources.
	var srcKinds uint8
	switch {
	case pkgLevel && (isGlobalRand(path, name) || forbiddenInVertexCode[path][name] || machineDependent[path][name]):
		srcKinds = taintRand
	case pkgLevel && path == "maps" && (name == "Keys" || name == "Values"):
		srcKinds = taintOrder // an explicitly iteration-ordered sequence
	case path == "fmt" && (strings.HasPrefix(name, "Sprint") || strings.HasPrefix(name, "Append") || name == "Errorf"):
		if len(call.Args) > 0 {
			if lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit); ok && strings.Contains(lit.Value, "%p") {
				srcKinds = taintAddr
			}
		}
	case fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "reflect" &&
		(name == "Pointer" || name == "UnsafeAddr" || name == "UnsafePointer"):
		srcKinds = taintAddr
	}

	sanitizes := strings.Contains(strings.ToLower(exprString(s.fset, call.Fun)), "sort")

	// Summary-based propagation for module functions; conservative
	// input-union for everything else.
	var out taintVal
	if srcKinds != 0 {
		out = taintVal{kinds: srcKinds, src: call.Pos()}
	}
	var sum *FuncSummary
	if fn != nil && s.facts != nil {
		sum = s.facts.summaryOf(fn)
	}
	tvs, poss := s.callInputs(call, fn)
	if sum != nil {
		for idx := 0; idx < len(tvs) && idx < len(sum.sinkParams); idx++ {
			if sum.sinkParams[idx] != "" && tvs[idx].tainted() {
				s.sink(poss[idx], fmt.Sprintf("%s (forwarded by %s)", sum.sinkParams[idx], name), tvs[idx])
			}
		}
		for _, r := range sum.results {
			if r.kinds != 0 {
				out = out.union(taintVal{kinds: r.kinds, src: call.Pos()})
			}
			for idx := 0; idx < len(tvs); idx++ {
				if r.fromParams&(1<<uint(idx)) != 0 {
					out = out.union(tvs[idx])
				}
			}
		}
	} else {
		// Unknown callee: results conservatively carry the inputs' taint.
		for _, tv := range tvs {
			out = out.union(tv)
		}
	}
	if sanitizes {
		out.kinds &^= taintOrder
	}
	return out
}

// callInputs evaluates the call's receiver and arguments, returning their
// taints indexed by callee parameter position (receiver = 0 for methods,
// variadic tail folded onto the last parameter) plus per-index argument
// positions for reporting.
func (s *taintScope) callInputs(call *ast.CallExpr, fn *types.Func) ([]taintVal, []token.Pos) {
	var sig *types.Signature
	if fn != nil {
		sig, _ = fn.Type().(*types.Signature)
	}
	base := 0
	var tvs []taintVal
	var poss []token.Pos
	if sig != nil && sig.Recv() != nil {
		base = 1
		tvs = append(tvs, taintVal{})
		poss = append(poss, call.Pos())
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if _, isSel := s.info.Selections[sel]; isSel {
				tvs[0] = s.exprTaint(sel.X)
				poss[0] = sel.X.Pos()
			}
		}
	}
	nparams := 0
	if sig != nil {
		nparams = sig.Params().Len()
	}
	for i, a := range call.Args {
		idx := base + i
		if nparams > 0 && i >= nparams {
			idx = base + nparams - 1
		}
		atv := s.exprTaint(a)
		for len(tvs) <= idx {
			tvs = append(tvs, taintVal{})
			poss = append(poss, a.Pos())
		}
		tvs[idx] = tvs[idx].union(atv)
	}
	return tvs, poss
}

// rootObj resolves the base object of an lvalue or argument expression:
// x, x.F, x[i], *x, x[i:j] all root at x.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.CallExpr:
			return nil
		default:
			return nil
		}
	}
}

func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// sigIsProgramShape reports whether sig is the engine Program shape —
// func(*engine.API) any — whose return value is broadcast as Final and
// stored in Result.Output.
func sigIsProgramShape(sig *types.Signature) bool {
	if sig == nil || sig.Params().Len() != 1 || !isAPIPtr(sig.Params().At(0).Type()) {
		return false
	}
	if sig.Results().Len() != 1 {
		return false
	}
	it, ok := typeUnder(sig.Results().At(0).Type()).(*types.Interface)
	return ok && it.Empty()
}

// isTestFile reports whether the file is a _test.go file. The
// interprocedural analyzer skips test files: test-local programs are
// certified dynamically by the equivalence suites.
func isTestFile(fset *token.FileSet, file *ast.File) bool {
	return strings.HasSuffix(fset.Position(file.Pos()).Filename, "_test.go")
}
