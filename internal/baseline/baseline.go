// Package baseline implements the classical worst-case algorithms the
// paper's tables compare against. Their vertex-averaged complexity equals
// (up to constants) their worst-case complexity, because every vertex
// stays active until a global round bound elapses — which is exactly the
// contrast the paper draws with its exponentially-decaying executions.
//
//   - ForestDecompositionWC: Procedure Forest-Decomposition of
//     Barenboim-Elkin (2008): all ell = O(log n) partition rounds first,
//     then orientation and labeling. Theta(log n) for every vertex.
//   - ArbLinialWC: the O(a^2 log^2 n)-coloring obtained from one Linial
//     step after the full decomposition (the worst-case counterpart of
//     Section 7.2), and IteratedArbLinialWC, its O(a^2) fixed-point
//     version (worst-case counterpart of Sections 7.3/7.6).
//   - ArbColorWC: the O(a)-coloring of [8] via a full bottom-up recoloring
//     wave, Theta(a log n) rounds (worst-case counterpart of 7.4/7.7).
//   - MISByColoringWC: deterministic MIS via the worst-case coloring plus
//     a color-class sweep (worst-case counterpart of Corollary 8.4).
//   - LubyMIS: Luby's randomized MIS, the classical O(log n) w.h.p.
//     reference.
//   - Ring3Coloring: Cole-Vishkin 3-coloring of a ring, Theta(log* n) in
//     both measures (Feuilloley's negative example).
//   - LeaderElectionRing: Hirschberg-Sinclair-style leader election whose
//     output-commitment rounds average O(log n) against a Theta(n) worst
//     case (Feuilloley's positive example; commitment is reported in the
//     output because losers keep relaying, per Feuilloley's first
//     definition).
package baseline

import (
	"vavg/internal/coloring"
	"vavg/internal/engine"
	"vavg/internal/forest"
	"vavg/internal/hpartition"
)

// wcDecomp runs the worst-case forest decomposition inside a vertex
// program: the full ell partition rounds (staying active throughout), one
// settle round, then local orientation and labeling.
func wcDecomp(api *engine.API, a int, eps float64) *forest.Decomp {
	d := forest.NewDecomp(api, a, eps)
	d.JoinAndSettle(api, hpartition.EllBound(api.N(), eps))
	return d
}

// ForestDecompositionWC is the classical Procedure Forest-Decomposition:
// the same output as forest.Program, but every vertex runs Theta(log n)
// rounds.
func ForestDecompositionWC(a int, eps float64) engine.Program {
	return func(api *engine.API) any {
		d := wcDecomp(api, a, eps)
		return d.Output(api)
	}
}

// ArbLinialWC colors with one Linial step after the full worst-case
// decomposition: an O(a^2 log^2 n)-coloring in Theta(log n) rounds for
// every vertex.
func ArbLinialWC(a int, eps float64) engine.Program {
	return func(api *engine.API) any {
		return coloring.LinialFromIDs(api, wcDecomp(api, a, eps))
	}
}

// IteratedArbLinialWC colors with the full iterated Arb-Linial-Coloring
// after the worst-case decomposition: an O(a^2)-coloring in
// Theta(log n + log* n) rounds for every vertex.
func IteratedArbLinialWC(a int, eps float64) engine.Program {
	return func(api *engine.API) any {
		d := wcDecomp(api, a, eps)
		return coloring.IteratedLinial(api, d.OutIdx, d.Tr.A,
			func(ms []engine.Msg) { d.Tr.Absorb(api, ms) })
	}
}

// ArbColorWC is Procedure Arb-Color of [8]: worst-case decomposition, then
// a bottom-up recoloring wave over the whole graph with the palette
// {0..A}: an O(a)-coloring in Theta(a log n) rounds for every vertex.
func ArbColorWC(a int, eps float64) engine.Program {
	return func(api *engine.API) any {
		d := wcDecomp(api, a, eps)
		return coloring.RecolorWave(api, d.OutIdx, 0)
	}
}

// MISByColoringWC computes an MIS deterministically via the worst-case
// O(a^2)-coloring followed by a full color-class sweep: Theta(log n + a^2)
// rounds for every vertex.
func MISByColoringWC(a int, eps float64) engine.Program {
	return func(api *engine.API) any {
		d := wcDecomp(api, a, eps)
		sink := func(ms []engine.Msg) { d.Tr.Absorb(api, ms) }
		c := coloring.IteratedLinial(api, d.OutIdx, d.Tr.A, sink)
		palette := coloring.LinialFinalPalette(api.N(), d.Tr.A)
		inMIS, dominated := false, false
		for cls := 0; cls < palette; cls++ {
			if cls == c && !dominated {
				inMIS = true
				coloring.BroadcastChosen(api, wcMISKind, 1)
			}
			for _, m := range api.Next() {
				if _, ok := coloring.AsChosen(m, wcMISKind); ok {
					dominated = true
				}
			}
		}
		return inMIS
	}
}

const wcMISKind = 6

// LubyMIS is Luby's randomized maximal independent set: O(log n) rounds
// w.h.p. Phases take two lockstep rounds: priorities are exchanged, local
// maxima join the MIS and terminate (their Final announces it), and
// dominated vertices terminate in the following round. Priorities are the
// only fast-lane traffic of the program, so they travel untagged with the
// full 63 random bits.
func LubyMIS() engine.Program {
	return func(api *engine.API) any {
		for {
			p := api.Rand().Int63()
			api.BroadcastInt(p)
			best := true
			for _, m := range api.Next() {
				if q, ok := m.AsInt(); ok {
					if q > p || (q == p && int(m.From) > api.ID()) {
						best = false
					}
				}
			}
			if best {
				return true
			}
			// Learn which neighbors joined this phase.
			for _, m := range api.Next() {
				if f, ok := m.Data.(engine.Final); ok {
					if in, ok := f.Output.(bool); ok && in {
						return false
					}
				}
			}
		}
	}
}

// Ring3Coloring 3-colors a cycle generated by graph.Ring via Cole-Vishkin
// with the successor orientation: Theta(log* n) rounds for every vertex,
// matching Feuilloley's result that the vertex-averaged complexity of
// ring coloring cannot beat the worst case.
func Ring3Coloring() engine.Program {
	return func(api *engine.API) any {
		n := api.N()
		succ := (api.ID() + 1) % n
		k := api.NeighborIndex(int32(succ))
		parentIdx := []int{-1, k}
		cv := coloring.CVForests(api, 1, parentIdx, coloring.NopSink)
		return int(cv[1])
	}
}

// LeaderOutput is the per-vertex result of LeaderElectionRing. The
// output-commitment rounds (Feuilloley's measure — losers keep relaying
// after committing, so termination rounds reflect the Theta(n) worst
// case) are reported through the engine's Result.CommitRounds.
type LeaderOutput struct {
	// Leader reports whether this vertex won.
	Leader bool
}
