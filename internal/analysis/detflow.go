package analysis

import (
	"fmt"
	"go/token"
	"go/types"
)

// Detflow is the interprocedural determinism analyzer. Where detorder and
// noglobalrand flag nondeterminism at its source, detflow follows the
// VALUE: map-iteration-order, non-PRNG-randomness, and address taints are
// propagated through assignments, composites, and — via the module-wide
// function summaries (facts.go) — across call boundaries. A tainted value
// is reported when it reaches a determinism sink:
//
//   - a message send (api.Send / SendID / SendInt / SendIDInt /
//     Broadcast / BroadcastInt argument — payload or target),
//   - adversary hashing (engine.Mix64 input: a tainted input reshuffles
//     which deliveries the adversary drops),
//   - a Result field write or Result literal, or a Program-shaped
//     function's return value (stored in Result.Output),
//   - engine.Done's step output,
//   - a call argument that the callee's summary says is forwarded to any
//     of the above (this is the case the single-function analyzers miss).
//
// Sorting a collected slice clears its order taint: collect-then-sort is
// the sanctioned idiom (see detorder). Test files are skipped — their
// inline programs are certified dynamically by the equivalence suites.
var Detflow = &Analyzer{
	Name:       "detflow",
	Doc:        "interprocedural taint: nondeterministic values must not reach messages, Results, or adversary hashing",
	Run:        runDetflow,
	NeedsFacts: true,
}

func runDetflow(pass *Pass) {
	if pass.Facts == nil {
		return
	}
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file) {
			continue
		}
		for _, fn := range funcsIn(pass, file) {
			s := &taintScope{
				info:       pass.Info,
				fset:       pass.Fset,
				facts:      pass.Facts,
				sig:        fn.sig,
				progShaped: sigIsProgramShape(fn.sig),
				// Diagnostic mode: parameters start clean; cross-function
				// flows are caught at the call site via summaries.
				params: map[types.Object]int{},
				vars:   map[types.Object]taintVal{},
				report: func(pos token.Pos, sink string, tv taintVal) {
					src := ""
					if tv.src.IsValid() {
						p := pass.Fset.Position(tv.src)
						src = fmt.Sprintf(" (source at line %d)", p.Line)
					}
					pass.Reportf(pos, "%s-tainted value reaches %s%s; sort collected keys, use api.Rand(), or drop the address identity",
						taintWords(tv.kinds), sink, src)
				},
			}
			s.run(fn.body)
		}
	}
}
