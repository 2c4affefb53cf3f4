package coloring

import (
	"math"

	"vavg/internal/engine"
	"vavg/internal/forest"
	"vavg/internal/hpartition"
)

// ArbLinialO1 is the algorithm of Section 7.2: an O(a^2 log n)-coloring
// with O(1) vertex-averaged complexity. It runs Procedure
// Parallelized-Forest-Decomposition and, immediately upon the formation of
// each H-set, colors its vertices with a single step of Procedure
// Arb-Linial-Coloring — which is purely local, because the parents'
// current colors are their IDs, already known at settle time. A vertex
// joining in partition round i therefore terminates in round i+2.
//
// (Our constructive Linial step uses the polynomial set system, giving a
// palette of O(a^2 log^2 n / log^2(a log n)) rather than the
// non-constructive 5*ceil(A^2 log n); see DESIGN.md.)
func ArbLinialO1(a int, eps float64) engine.Program {
	return func(api *engine.API) any {
		d := forest.NewDecomp(api, a, eps)
		d.JoinAndSettle(api, 0)
		return LinialFromIDs(api, d)
	}
}

// LinialFromIDs is the one Arb-Linial-Coloring step a vertex takes once
// its decomposition d has settled: the parents' current colors are their
// IDs, so the step is purely local.
func LinialFromIDs(api *engine.API, d *forest.Decomp) int {
	ids := api.NeighborIDs()
	parents := make([]int, len(d.OutIdx))
	for j, k := range d.OutIdx {
		parents[j] = int(ids[k])
	}
	return LinialStep(api.N(), d.Tr.A, api.ID(), parents)
}

// ArbLinialO1Palette returns the palette bound of ArbLinialO1.
func ArbLinialO1Palette(n, a int, eps float64) int {
	return LinialPaletteAfter(n, hpartition.ParamA(a, eps))
}

// phaseSplit returns t = floor(c' * loglog n) clamped to [1, EllBound],
// with c' = log_{(2+eps)/2} 2, the phase-1 length of the two-phase
// algorithms (Sections 7.3, 7.4, 9.3).
func phaseSplit(n int, eps float64) (t, ell int) {
	ell = hpartition.EllBound(n, eps)
	if n < 4 {
		return 1, ell
	}
	cPrime := math.Ln2 / math.Log((2+eps)/2)
	t = int(math.Floor(cPrime * math.Log2(math.Log2(float64(n)))))
	if t < 1 {
		t = 1
	}
	if t > ell {
		t = ell
	}
	return t, ell
}

// SegmentParents returns the neighbor indices that are this vertex's
// parents within the H-set segment (lo, hi]: neighbors in a later H-set of
// the segment, or in the same set with a higher ID.
func SegmentParents(api *engine.API, tr *hpartition.Tracker, lo, hi int32) []int {
	nm := 0
	for _, h := range tr.NbrH {
		if h > lo && h <= hi {
			nm++
		}
	}
	// One allocation: the parents are a subset of the segment neighbors.
	parents := make([]int, 0, nm)
	ids := api.NeighborIDs()
	my := tr.HIndex
	for k, h := range tr.NbrH {
		if h > lo && h <= hi && (h > my || h == my && int(ids[k]) > api.ID()) {
			parents = append(parents, k)
		}
	}
	return parents
}

// SetMembers returns the neighbor indices in this vertex's own H-set.
func SetMembers(tr *hpartition.Tracker) []int {
	n := 0
	for _, h := range tr.NbrH {
		if h == tr.HIndex {
			n++
		}
	}
	members := make([]int, 0, n)
	for k, h := range tr.NbrH {
		if h == tr.HIndex {
			members = append(members, k)
		}
	}
	return members
}

// TwoPhaseA2 is the algorithm of Section 7.3: an O(a^2)-coloring with
// O(log log n) vertex-averaged complexity. Phase 1 runs t = O(log log n)
// partition rounds and colors the segment H_1..H_t with the full iterated
// Arb-Linial-Coloring (O(log* n) rounds); phase 2 finishes the partition
// (by round EllBound, leaving only O(n / log n) vertices) and colors the
// remaining segment the same way with a disjoint palette. The flattened
// output color is c + (phase-1)*P with P = TwoPhaseA2PhasePalette.
func TwoPhaseA2(a int, eps float64) engine.Program {
	return func(api *engine.API) any {
		n := api.N()
		tr := hpartition.NewTracker(api, a, eps)
		A := tr.A
		t, ell := phaseSplit(n, eps)
		P := LinialFinalPalette(n, A)

		for int32(api.Round()) < int32(t) && tr.HIndex == 0 {
			tr.Step(api)
		}
		phase := 1
		segLo, segHi := int32(0), int32(t)
		if tr.HIndex == 0 {
			// Phase 2: keep partitioning until joined, then wait out the
			// global partition bound.
			phase = 2
			segLo, segHi = int32(t), int32(ell)
			for tr.HIndex == 0 {
				tr.Step(api)
			}
			tr.AbsorbUntil(api, ell)
		} else {
			// Phase 1: wait for the rest of the segment to form.
			tr.AbsorbUntil(api, t)
		}
		// Settle round: the segment's last joins announce themselves.
		tr.Absorb(api, api.Next())
		parents := SegmentParents(api, tr, segLo, segHi)
		c := IteratedLinial(api, parents, A, func(ms []engine.Msg) { tr.Absorb(api, ms) })
		return c + (phase-1)*P
	}
}

// TwoPhaseA2PhasePalette returns the per-phase palette bound P of
// TwoPhaseA2; the algorithm uses at most 2P = O(a^2) colors.
func TwoPhaseA2PhasePalette(n, a int, eps float64) int {
	return LinialFinalPalette(n, hpartition.ParamA(a, eps))
}
