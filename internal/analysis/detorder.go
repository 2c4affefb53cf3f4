package analysis

import (
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Detorder enforces the suite's deepest determinism invariant: nothing a
// run produces may depend on Go's randomized map-iteration order. A
// `range` over a map is accepted only when its body is provably
// order-insensitive:
//
//   - writes keyed by the iteration variables (m2[k] = v, delete(m, k)),
//     which touch each key once regardless of order;
//   - commutative integer aggregation (+=, -=, *=, |=, &=, ^=, ++, --);
//   - re-assignment of values that do not depend on the iteration
//     variables (found = true);
//   - strict min/max selection (if v < best { best = v });
//   - appends into a slice that is sorted after the loop completes
//     (collect-then-sort).
//
// Anything else — sends, t.Run, early return/break, float or string
// accumulation, appends that never meet a sort — is flagged. Deliberate
// exceptions take a //lint:ignore detorder <reason> suppression.
var Detorder = &Analyzer{
	Name: "detorder",
	Doc:  "flags range-over-map whose iteration order can reach messages, outputs, or Results",
	Run:  runDetorder,
}

func runDetorder(pass *Pass) {
	for _, file := range pass.Files {
		for _, fn := range funcsIn(pass, file) {
			checkMapRanges(pass, fn)
		}
	}
}

// checkMapRanges inspects the map ranges that belong directly to fn
// (nested function literals are separate funcInfo entries).
func checkMapRanges(pass *Pass, fn funcInfo) {
	walkSkippingFuncLits(fn.body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if _, isMap := pass.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
			return true
		}
		s := &orderSafety{pass: pass, iterVars: map[types.Object]bool{}}
		s.addIterVars(rs)
		if !s.stmts(rs.Body.List) {
			pass.Reportf(rs.Pos(), "range over map %s has order-dependent effects%s; iterate sorted keys, or suppress with //lint:ignore detorder <reason>",
				exprString(pass.Fset, rs.X), s.reason)
			return true
		}
		if s.earlyExit.IsValid() && (s.mutates || len(s.appended) > 0) {
			pass.Reportf(s.earlyExit, "early exit from a map range that also mutates state: the exit point decides how many mutations ran; iterate sorted keys, or suppress with //lint:ignore detorder <reason>")
			return true
		}
		for _, ap := range s.appended {
			if !sortedAfter(pass, fn.body, rs, ap.expr) {
				pass.Reportf(ap.pos, "slice %s is appended in map-iteration order and never sorted afterwards; sort it before use, or suppress with //lint:ignore detorder <reason>", ap.expr)
			}
		}
		return true
	})
}

// orderSafety walks a map-range body deciding whether its effects are
// independent of iteration order. iterVars holds the loop variables plus
// any iteration-local variables declared inside the body; appended maps
// accumulator slices to the position of their first append.
type orderSafety struct {
	pass     *Pass
	iterVars map[types.Object]bool
	appended []appendSite
	reason   string
	// mutates records that the body updates state outside the iteration
	// (counters, map entries, accumulators); earlyExit records a
	// constant-return scan. Each is safe alone, but together the exit
	// point decides how many mutations ran — order-dependent again.
	mutates   bool
	earlyExit token.Pos
}

// appendSite is one accumulator slice appended to inside the loop — an
// identifier or field selector, tracked by its printed form so
// `rep.Unmatched` matches across the append and the later sort — with
// the position of its first append (kept in source order so diagnostics
// are deterministic without sorting map keys — the analyzer practices
// what it preaches).
type appendSite struct {
	expr string
	pos  token.Pos
}

func (s *orderSafety) addIterVars(rs *ast.RangeStmt) {
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok {
			if obj := s.pass.Info.Defs[id]; obj != nil {
				s.iterVars[obj] = true
			}
		}
	}
}

func (s *orderSafety) fail(pos token.Pos, why string) bool {
	if s.reason == "" {
		s.reason = " (" + why + " at line " + strconv.Itoa(s.pass.Fset.Position(pos).Line) + ")"
	}
	return false
}

func (s *orderSafety) stmts(list []ast.Stmt) bool {
	for _, st := range list {
		if !s.stmt(st) {
			return false
		}
	}
	return true
}

func (s *orderSafety) stmt(st ast.Stmt) bool {
	switch st := st.(type) {
	case *ast.AssignStmt:
		return s.assign(st)
	case *ast.IncDecStmt:
		s.mutates = true
		return true // x++ / x-- is commutative counting
	case *ast.ExprStmt:
		call, ok := st.X.(*ast.CallExpr)
		if ok && isBuiltinCall(s.pass.Info, call, "delete") && len(call.Args) == 2 && s.refsIterVar(call.Args[1]) {
			s.mutates = true
			return true // delete keyed by the iteration variable
		}
		return s.fail(st.Pos(), "call with side effects")
	case *ast.IfStmt:
		return s.ifStmt(st)
	case *ast.BlockStmt:
		return s.stmts(st.List)
	case *ast.DeclStmt:
		return true // iteration-local declaration
	case *ast.BranchStmt:
		if st.Tok == token.CONTINUE {
			return true
		}
		return s.fail(st.Pos(), "loop exit selects an arbitrary element")
	case *ast.RangeStmt:
		s.addIterVars(st)
		return s.stmts(st.Body.List)
	case *ast.ForStmt:
		return s.stmts(st.Body.List)
	default:
		return s.fail(st.Pos(), "order-sensitive statement")
	}
}

// commutativeOps are the compound assignments that commute on integers.
var commutativeOps = map[token.Token]bool{
	token.ADD_ASSIGN: true,
	token.SUB_ASSIGN: true,
	token.MUL_ASSIGN: true,
	token.AND_ASSIGN: true,
	token.OR_ASSIGN:  true,
	token.XOR_ASSIGN: true,
}

func (s *orderSafety) assign(st *ast.AssignStmt) bool {
	if st.Tok == token.DEFINE {
		// Iteration-local definition: the variables live one iteration, so
		// record them as iteration-derived; the values may not come from
		// side-effecting calls.
		for _, lhs := range st.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := s.pass.Info.Defs[id]; obj != nil {
					s.iterVars[obj] = true
				}
			}
		}
		for _, rhs := range st.Rhs {
			if s.hasCall(rhs) {
				return s.fail(st.Pos(), "call with unknown effects")
			}
		}
		return true
	}
	if commutativeOps[st.Tok] {
		lhsType := s.pass.TypeOf(st.Lhs[0])
		if b, ok := lhsType.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			s.mutates = true
			return true
		}
		return s.fail(st.Pos(), "non-integer accumulation is order-dependent")
	}
	if st.Tok != token.ASSIGN {
		return s.fail(st.Pos(), "order-sensitive assignment")
	}
	if len(st.Lhs) == 1 && len(st.Rhs) == 1 {
		if ap, isAppend := s.selfAppend(st.Lhs[0], st.Rhs[0]); isAppend {
			seen := false
			for _, prev := range s.appended {
				if prev.expr == ap {
					seen = true
					break
				}
			}
			if !seen {
				s.appended = append(s.appended, appendSite{expr: ap, pos: st.Pos()})
			}
			return true
		}
	}
	for _, lhs := range st.Lhs {
		if !s.safeStore(lhs) {
			return s.fail(st.Pos(), "write whose final value depends on iteration order")
		}
		s.mutates = true
	}
	for _, rhs := range st.Rhs {
		if s.hasCall(rhs) {
			return s.fail(st.Pos(), "call with unknown effects")
		}
	}
	return true
}

// safeStore reports whether writing lhs once per iteration is
// order-independent: an element keyed by the iteration variables (each
// key visited once), or a variable assigned a value that does not depend
// on the iteration variables (every iteration stores the same thing).
func (s *orderSafety) safeStore(lhs ast.Expr) bool {
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		return s.refsIterVar(ix.Index)
	}
	return false
}

// selfAppend matches lhs = append(lhs, ...) — lhs an identifier or field
// selector — and returns the accumulator's printed form.
func (s *orderSafety) selfAppend(lhs, rhs ast.Expr) (string, bool) {
	switch lhs.(type) {
	case *ast.Ident, *ast.SelectorExpr:
	default:
		return "", false
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok || !isBuiltinCall(s.pass.Info, call, "append") || len(call.Args) == 0 {
		return "", false
	}
	target := exprString(s.pass.Fset, lhs)
	if exprString(s.pass.Fset, ast.Unparen(call.Args[0])) != target {
		return "", false
	}
	return target, true
}

func (s *orderSafety) ifStmt(st *ast.IfStmt) bool {
	if st.Init != nil {
		if as, ok := st.Init.(*ast.AssignStmt); !ok || !s.assign(as) {
			return false
		}
	}
	if s.minMaxSelection(st) {
		return true
	}
	if s.hasCall(st.Cond) {
		return s.fail(st.Cond.Pos(), "call with unknown effects in condition")
	}
	if s.constantEarlyExit(st) {
		return true
	}
	if !s.stmts(st.Body.List) {
		return false
	}
	if st.Else != nil {
		return s.stmt(st.Else)
	}
	return true
}

// minMaxSelection accepts the strict selection idiom
//
//	if v < best { best = v }   (or >, with the operands either way round)
//
// whose result — the extreme value — is the same in every iteration
// order. Non-strict comparisons and bodies that update companion
// variables are rejected: ties would then resolve by visit order.
func (s *orderSafety) minMaxSelection(st *ast.IfStmt) bool {
	cond, ok := ast.Unparen(st.Cond).(*ast.BinaryExpr)
	if !ok || (cond.Op != token.LSS && cond.Op != token.GTR) || st.Else != nil {
		return false
	}
	if len(st.Body.List) != 1 {
		return false
	}
	as, ok := st.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	tgt := exprString(s.pass.Fset, as.Lhs[0])
	src := exprString(s.pass.Fset, as.Rhs[0])
	x := exprString(s.pass.Fset, cond.X)
	y := exprString(s.pass.Fset, cond.Y)
	return (x == src && y == tgt) || (x == tgt && y == src)
}

// constantEarlyExit accepts the any-of / all-of scan idiom
//
//	if <pure cond> { return true }
//
// where every returned value is a constant: whichever iteration triggers
// the return, the caller observes the same values, so the scan's result
// is order-free. (The condition was already checked for calls.)
func (s *orderSafety) constantEarlyExit(st *ast.IfStmt) bool {
	if st.Else != nil || len(st.Body.List) != 1 {
		return false
	}
	ret, ok := st.Body.List[0].(*ast.ReturnStmt)
	if !ok {
		return false
	}
	for _, res := range ret.Results {
		tv, found := s.pass.Info.Types[res]
		if !found || tv.Value == nil {
			// Not a compile-time constant; nil and zero literals of
			// reference types have no constant.Value, so allow bare nil.
			if id, isIdent := ast.Unparen(res).(*ast.Ident); isIdent && id.Name == "nil" {
				continue
			}
			return false
		}
	}
	if !s.earlyExit.IsValid() {
		s.earlyExit = ret.Pos()
	}
	return true
}

func (s *orderSafety) refsIterVar(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && s.iterVars[s.pass.Info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

func (s *orderSafety) hasCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		switch obj := calleeObj(s.pass.Info, call).(type) {
		case *types.Builtin:
			switch obj.Name() {
			case "len", "cap", "min", "max":
				return true // pure
			}
			found = true
		case *types.TypeName:
			return true // conversion
		default:
			if tv, isConv := s.pass.Info.Types[call.Fun]; isConv && tv.IsType() {
				return true
			}
			found = true
		}
		return !found
	})
	return found
}

// sortedAfter reports whether, somewhere after the loop in the enclosing
// function, the accumulator is passed to a sorting call — any callee
// whose printed form mentions "sort" (sort.Strings, sort.Slice,
// slices.Sort, a local sortInt32, ...).
func sortedAfter(pass *Pass, body *ast.BlockStmt, rs *ast.RangeStmt, accum string) bool {
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || sorted {
			return !sorted
		}
		if !strings.Contains(strings.ToLower(exprString(pass.Fset, call.Fun)), "sort") {
			return true
		}
		for _, arg := range call.Args {
			if exprString(pass.Fset, ast.Unparen(arg)) == accum {
				sorted = true
			}
		}
		return !sorted
	})
	return sorted
}

func exprString(fset *token.FileSet, e ast.Expr) string {
	var sb strings.Builder
	if err := printer.Fprint(&sb, fset, e); err != nil {
		return "<expr>"
	}
	return sb.String()
}
