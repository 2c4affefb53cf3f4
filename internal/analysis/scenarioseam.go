package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// Import path of the fault layer whose seam this analyzer guards.
const scenarioPath = "vavg/internal/scenario"

// Scenarioseam enforces the two-sided independence contract between the
// fault layer and algorithm code (DESIGN.md §8). The fault layer's
// decision streams must be pure functions of (run seed, scenario seed) so
// the same spec replays byte-identically in both forms; algorithm
// behavior must be identical whether or not a scenario is attached. Two
// rules keep the sides apart:
//
//   - fault-layer code — any function with a parameter or receiver of a
//     type declared in internal/scenario — may not draw from api.Rand()
//     (the algorithm-side per-vertex PRNG) or the global math/rand
//     source; its randomness comes from the scenario's seed-derived
//     streams.
//
//   - algorithm code may not import internal/scenario: a file that
//     declares vertex code (a function receiving *engine.API) must not see
//     the fault layer at all. Faults reach vertices only through the
//     compiled engine Adversary. The root vavg package is exempt — the
//     facade owns the seam and necessarily touches both sides.
var Scenarioseam = &Analyzer{
	Name: "scenarioseam",
	Doc:  "keeps fault-layer randomness on the scenario's seed-derived streams and the fault layer out of algorithm packages",
	Run:  runScenarioseam,
}

func runScenarioseam(pass *Pass) {
	for _, file := range pass.Files {
		checkScenarioImport(pass, file)
		for _, fn := range funcsIn(pass, file) {
			if !sigTouchesScenario(fn.sig) {
				continue
			}
			// Nested function literals are classified on their own
			// signatures: a vertex-code closure built inside seam code is
			// algorithm-side and exec's contracts apply to it instead.
			walkSkippingFuncLits(fn.body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, ok := apiMethod(pass.Info, call); ok && name == "Rand" {
					pass.Reportf(call.Pos(), "api.Rand() in fault-layer code; fault decisions must come from the scenario's seed-derived streams so they replay independently of algorithm randomness")
				}
				if path, name, ok := pkgFunc(pass.Info, call); ok && isGlobalRand(path, name) {
					pass.Reportf(call.Pos(), "global math/rand call %s.%s in fault-layer code; derive randomness from the scenario's seed-derived streams", path, name)
				}
				return true
			})
		}
	}
}

// checkScenarioImport flags an internal/scenario import in any file that
// also declares vertex code. The root facade package and the fault layer
// itself legitimately sit on the seam.
func checkScenarioImport(pass *Pass, file *ast.File) {
	switch pass.Pkg.Path() {
	case "vavg", scenarioPath:
		return
	}
	var imp *ast.ImportSpec
	for _, spec := range file.Imports {
		if path, err := strconv.Unquote(spec.Path.Value); err == nil && path == scenarioPath {
			imp = spec
			break
		}
	}
	if imp == nil {
		return
	}
	for _, fn := range funcsIn(pass, file) {
		if sigHasAPIParam(fn.sig) {
			pass.Reportf(imp.Pos(), "vertex code must not import %s; faults reach algorithms only through the compiled engine Adversary", scenarioPath)
			return
		}
	}
}

// sigTouchesScenario reports whether the signature carries a parameter or
// receiver of a type declared in internal/scenario — the marker of
// fault-layer code.
func sigTouchesScenario(sig *types.Signature) bool {
	if recv := sig.Recv(); recv != nil && typeFromScenario(recv.Type()) {
		return true
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if typeFromScenario(params.At(i).Type()) {
			return true
		}
	}
	return false
}

func typeFromScenario(t types.Type) bool {
	if t == nil {
		return false
	}
	if s, ok := dePtr(t).(*types.Slice); ok {
		t = s.Elem()
	}
	n, ok := dePtr(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == scenarioPath
}
