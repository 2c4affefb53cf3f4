package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Stepcontract enforces the step runner's execution model on step-form
// code: any function that takes the *engine.API handle and produces an
// engine.Step verdict (StepFns themselves and the vertex-struct helpers
// a turn returns its verdict through). The step driver invokes these on
// a shard worker with no per-vertex goroutine, so a turn must run to
// completion without ever blocking, and it must cross rounds only by
// returning a verdict:
//
//   - api.Next and api.Idle are forbidden — they park a goroutine the
//     step runner does not have; the step forms are Continue and Sleep;
//   - goroutine launches, channel operations, select, time.Sleep, and
//     sync.WaitGroup.Wait are forbidden for the same reason;
//   - every return must produce its verdict directly from a call —
//     Continue(...), Sleep(...), Done(...), or a helper that returns one —
//     never from a stored Step value, which hides which constructor ran
//     and defeats the nil-StepFn panics guarding Continue and Sleep.
//
// A value-typed sub-machine's Start and Turn methods run inside a turn
// too, but return a done flag rather than a Step, so their signature
// does not identify them. A //vavg:stepform doc-comment directive opts
// such a function into the no-blocking rules; the verdict rule does not
// apply to it.
var Stepcontract = &Analyzer{
	Name:     "stepcontract",
	Doc:      "step-form programs must not block and must return verdicts from Continue/Sleep/Done",
	Run:      runStepcontract,
	SkipPkgs: []string{enginePath},
}

// stepformDirective marks a function that runs inside a step turn without
// returning a Step verdict.
const stepformDirective = "//vavg:stepform"

func runStepcontract(pass *Pass) {
	for _, file := range pass.Files {
		for _, fn := range funcsIn(pass, file) {
			switch {
			case sigIsStepForm(fn.sig):
				checkNoBlocking(pass, fn)
				checkVerdictReturns(pass, fn)
			case hasDirective(fn.doc, stepformDirective):
				checkNoBlocking(pass, fn)
			}
		}
	}
}

// checkNoBlocking flags blocking constructs in the turn body. Nested
// function literals that are themselves step-form are skipped — they are
// separate turns, visited on their own — but plain closures stay in
// scope: they run inside this turn.
func checkNoBlocking(pass *Pass, fn funcInfo) {
	ast.Inspect(fn.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if sig, ok := pass.TypeOf(n).(*types.Signature); ok && sigIsStepForm(sig) && n != fn.node {
				return false
			}
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "goroutine launch in step-form code; the step driver owns all scheduling")
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "select in step-form code blocks the shard driver")
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send in step-form code can block the shard driver")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "channel receive in step-form code can block the shard driver")
			}
		case *ast.CallExpr:
			if name, ok := apiMethod(pass.Info, n); ok && (name == "Next" || name == "Idle") {
				verb := "Continue(next)"
				if name == "Idle" {
					verb = "Sleep(k, next)"
				}
				pass.Reportf(n.Pos(), "api.%s blocks and only the goroutine runner supports it; a step turn crosses rounds by returning %s", name, verb)
				return true
			}
			if path, name, ok := pkgFunc(pass.Info, n); ok && path == "time" && name == "Sleep" {
				pass.Reportf(n.Pos(), "time.Sleep in step-form code stalls the whole shard; return Sleep(k, next) to wait counted rounds")
				return true
			}
			if fnObj, ok := calleeObj(pass.Info, n).(*types.Func); ok && fnObj.Pkg() != nil &&
				fnObj.Pkg().Path() == "sync" && fnObj.Name() == "Wait" {
				pass.Reportf(n.Pos(), "sync wait in step-form code blocks the shard driver")
			}
		}
		return true
	})
}

// checkVerdictReturns inspects the return statements that belong to fn
// itself (not to nested literals) and requires each returned Step to be
// produced by a call.
func checkVerdictReturns(pass *Pass, fn funcInfo) {
	walkSkippingFuncLits(fn.body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if !isNamed(pass.TypeOf(res), enginePath, "Step") {
				continue
			}
			if _, isCall := ast.Unparen(res).(*ast.CallExpr); !isCall {
				pass.Reportf(res.Pos(), "step verdict must come directly from Continue/Sleep/Done (or a helper call), not from a stored %s value", exprString(pass.Fset, res))
			}
		}
		return true
	})
}
