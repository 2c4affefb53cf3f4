package coloring

import (
	"vavg/internal/engine"
	"vavg/internal/hpartition"
)

// AColorSchedule collects the round schedule shared by every vertex of the
// Section 7.4 algorithm (and reused by the segmentation scheme of Section
// 7.7). All quantities derive from (n, a, eps), which are global
// knowledge, so each vertex computes the same schedule locally.
type AColorSchedule struct {
	A    int // partition threshold (2+eps)a
	T    int // phase-1 iterations: floor(c' loglog n)
	Ell  int // partition completion bound
	W    int // width of one iteration window
	S1   int // round at which the phase-1 recolor wave starts
	Wrc1 int // width of the phase-1 recolor window
	S2   int // round at which the phase-2 recolor wave starts
	Wrc2 int // width of the phase-2 recolor window
}

// NewAColorSchedule computes the schedule for an n-vertex graph.
func NewAColorSchedule(n, a int, eps float64) AColorSchedule {
	A := hpartition.ParamA(a, eps)
	t, ell := phaseSplit(n, eps)
	// Window: partition round + settle + Delta+1 coloring + color exchange.
	w := 3 + DeltaPlus1Rounds(n, A)
	s1 := t * w
	wrc1 := (A+1)*t + 2
	s2 := s1 + wrc1 + (ell-t)*w
	wrc2 := (A+1)*(ell-t) + 2
	return AColorSchedule{A: A, T: t, Ell: ell, W: w, S1: s1, Wrc1: wrc1, S2: s2, Wrc2: wrc2}
}

// AColorLogLog is the algorithm of Section 7.4: an O(a)-coloring with
// O((a log a + log* n) * log log n) vertex-averaged complexity (the paper
// states O(a log log n); the log a and log* n factors come from our
// (Delta+1)-on-H-set substitute, see DESIGN.md). The algorithm proceeds in
// iterations; in iteration i, the H-set H_i forms, is colored with A+1
// colors, and orients its edges by color (within the set) and toward later
// sets. After the t = O(log log n) phase-1 iterations, the phase-1 segment
// recolors along the acyclic orientation from the palette {0..A}, each
// vertex waiting for its parents; phase 2 does the same for the remaining
// sets with a disjoint palette. Final flat color = c + (phase-1)*(A+1),
// so at most 2(A+1) = O(a) colors are used.
func AColorLogLog(a int, eps float64) engine.Program {
	return func(api *engine.API) any {
		n := api.N()
		sch := NewAColorSchedule(n, a, eps)
		tr := hpartition.NewTracker(api, a, eps)
		sink := func(ms []engine.Msg) { tr.Absorb(api, ms) }

		// Iteration windows: one partition step, then either run the
		// window as a new H-set member or idle through it.
		for tr.HIndex == 0 {
			joined, _ := tr.Step(api)
			if !joined {
				tr.Absorb(api, api.Idle(sch.W-1))
			}
		}
		i := tr.HIndex
		// Settle round: same-iteration joins arrive.
		tr.Absorb(api, api.Next())
		members := SetMembers(tr)
		c := DeltaPlus1OnSet(api, members, sch.A, sink)
		// Exchange the Delta+1 colors within the set to orient by color.
		setColor := map[int]int{} // neighbor index -> its set color
		BroadcastChosen(api, dp1Kind, int32(c))
		ms := newMemberSet(api, members)
		var stray []engine.Msg
		for _, m := range api.Next() {
			if mc, ok := AsChosen(m, dp1Kind); ok && ms.idx[m.From] {
				setColor[api.NeighborIndex(m.From)] = int(mc)
				continue
			}
			stray = append(stray, m)
		}
		sink(stray)

		// Wait for this vertex's segment recolor window.
		segLo, segHi, start, base := int32(0), int32(sch.T), sch.S1, 0
		if int(i) > sch.T {
			segLo, segHi, start, base = int32(sch.T), int32(sch.Ell), sch.S2, sch.A+1
		}
		tr.AbsorbUntil(api, start)
		// Parents within the segment: later H-set, or same set with higher
		// Delta+1 color.
		var parents []int
		for k, h := range tr.NbrH {
			if h <= segLo || h > segHi {
				continue
			}
			if h > i || (h == i && setColor[k] > c) {
				parents = append(parents, k)
			}
		}
		return RecolorWave(api, parents, base)
	}
}

const dp1Kind = 2

// AColorPalette returns the color budget of AColorLogLog: 2(A+1).
func AColorPalette(a int, eps float64) int {
	return 2 * (hpartition.ParamA(a, eps) + 1)
}
