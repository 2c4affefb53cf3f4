// Package segment implements the segmentation scheme of Section 7.5 and
// its two instantiations: the O(k*a^2)-coloring with O(log^(k) n)
// vertex-averaged complexity of Section 7.6 and the O(k*a)-coloring with
// O(a log^(k) n) vertex-averaged complexity of Section 7.7 (Figure 1).
//
// The scheme divides the H-sets produced by Procedure Partition into k
// segments processed from segment k down to segment 1: segment i consists
// of roughly (2/eps)*log^(i) n H-sets. Upon the formation of each H-set,
// algorithms A and B run on it and boundary edges are oriented; once a
// segment's sets have all formed, algorithm C colors the whole segment
// subgraph with a palette block unique to the segment. Because the number
// of active vertices decays exponentially while segment lengths grow as
// iterated logarithms, the vertex-averaged complexity is dominated by the
// first (shortest) segment.
package segment

import (
	"math"
	"sync"

	"vavg/internal/coloring"
	"vavg/internal/engine"
	"vavg/internal/hpartition"
)

// Plan is the global round schedule of a segmentation run; all vertices
// would compute the identical Plan from (n, a, eps, k), which are global
// knowledge, so NewPlan builds it once and every vertex shares it. A Plan
// is read-only.
type Plan struct {
	// K is the number of segments, in [2, Rho(n)].
	K int
	// A is the partition threshold (2+eps)a.
	A int
	// SegLen[s] is the number of H-sets in the s-th processed segment
	// (s = 0 is segment number K, s = K-1 is segment number 1).
	SegLen []int
	// W is the width in rounds of one H-set iteration window.
	W int
	// CWidth[s] is the width in rounds of the s-th segment's C-block.
	CWidth []int
	// segStart[s] is the first round of segment s; cStart[s] the first
	// round of its C-block.
	segStart, cStart []int
}

// plans memoizes NewPlan like coloring memoizes LinialSchedule. eps is
// keyed by its bits, so that a NaN finds its entry again.
var plans sync.Map // planKey -> *Plan

type planKey struct {
	n, a, k                  int
	eps                      uint64
	windowW, cPerSet, cFixed int
}

// NewPlan returns the schedule. windowW is the per-H-set window width;
// a segment of segLen H-sets gets a C-block of cPerSet*segLen + cFixed
// rounds. The Plan is memoized per input: every call with the same
// arguments returns the same *Plan, which callers must not modify.
func NewPlan(n, a, k int, eps float64, windowW, cPerSet, cFixed int) *Plan {
	key := planKey{n, a, k, math.Float64bits(eps), windowW, cPerSet, cFixed}
	if v, ok := plans.Load(key); ok {
		return v.(*Plan)
	}
	// LoadOrStore, so that racing first callers all return one Plan.
	v, _ := plans.LoadOrStore(key, newPlan(n, a, k, eps, windowW, cPerSet, cFixed))
	return v.(*Plan)
}

// newPlan is NewPlan without the memo.
func newPlan(n, a, k int, eps float64, windowW, cPerSet, cFixed int) *Plan {
	if k < 2 {
		panic("segment: k must be at least 2")
	}
	if r := coloring.Rho(n); k > r {
		k = r
	}
	p := &Plan{K: k, A: hpartition.ParamA(a, eps), W: windowW}
	c := 2 / eps
	total := 0
	for i := k; i >= 1; i-- {
		l := int(math.Ceil(c * float64(coloring.IterLog(n, i))))
		if l < 1 {
			l = 1
		}
		if i == 1 {
			// The last segment must absorb every remaining vertex.
			if rest := hpartition.EllBound(n, eps) - total; l < rest {
				l = rest
			}
		}
		p.SegLen = append(p.SegLen, l)
		total += l
	}
	round := 0
	for s := range p.SegLen {
		p.segStart = append(p.segStart, round)
		round += p.SegLen[s] * p.W
		p.cStart = append(p.cStart, round)
		cw := cPerSet*p.SegLen[s] + cFixed
		p.CWidth = append(p.CWidth, cw)
		round += cw
	}
	return p
}

// SegmentOf returns the processed-segment index s containing H-set h
// (1-based), along with the segment's H-index range (lo, hi].
func (p *Plan) SegmentOf(h int) (s int, lo, hi int32) {
	acc := 0
	for s = 0; s < len(p.SegLen); s++ {
		if h <= acc+p.SegLen[s] {
			return s, int32(acc), int32(acc + p.SegLen[s])
		}
		acc += p.SegLen[s]
	}
	// Should be unreachable: the final segment absorbs everyone.
	last := len(p.SegLen) - 1
	return last, int32(acc - p.SegLen[last]), int32(acc)
}

// TotalHSets returns the number of partition rounds the plan schedules.
func (p *Plan) TotalHSets() int {
	t := 0
	for _, l := range p.SegLen {
		t += l
	}
	return t
}

// runPartitionWindows drives the vertex through iteration windows until it
// joins an H-set, honoring the plan's window geometry: one partition step
// in the first round of each window, idling (and absorbing) otherwise,
// including through C-blocks of segments it does not belong to. It
// returns after the join round.
func (p *Plan) runPartitionWindows(api *engine.API, tr *hpartition.Tracker) {
	for s := range p.SegLen {
		for m := 0; m < p.SegLen[s]; m++ {
			if joined, _ := tr.Step(api); joined {
				return
			}
			tr.Absorb(api, api.Idle(p.W-1))
		}
		// C-block of segment s: this vertex is still active, so it idles.
		tr.Absorb(api, api.Idle(p.CWidth[s]))
	}
	panic("segment: vertex failed to join within the planned partition rounds")
}

// KA2Coloring is the algorithm of Section 7.6: an O(k*a^2)-vertex-coloring
// with O(log^(k) n) vertex-averaged complexity, for 2 <= k <= Rho(n).
// Algorithm A is null, algorithm B is the forest-decomposition orientation
// (local at settle time), and algorithm C is Procedure Arb-Linial-Coloring
// run on each completed segment. With k = Rho(n) this yields the
// O(a^2 log* n)-coloring in O(log* n) vertex-averaged rounds of Corollary
// 7.14.
func KA2Coloring(a, k int, eps float64) engine.Program {
	return func(api *engine.API) any {
		n := api.N()
		plan := NewPlan(n, a, k, eps, 2, 0, coloring.IteratedLinialRounds(n, hpartition.ParamA(a, eps)))
		tr := hpartition.NewTracker(api, a, eps)
		plan.runPartitionWindows(api, tr)
		s, lo, hi := plan.SegmentOf(int(tr.HIndex))
		// Settle round (second round of this vertex's window).
		tr.Absorb(api, api.Next())
		// Wait for the segment's C-block.
		tr.AbsorbUntil(api, plan.cStart[s])
		parents := coloring.SegmentParents(api, tr, lo, hi)
		c := coloring.IteratedLinial(api, parents, plan.A,
			func(ms []engine.Msg) { tr.Absorb(api, ms) })
		P := coloring.LinialFinalPalette(n, plan.A)
		return c + s*P
	}
}

// KA2Palette returns the total color budget of KA2Coloring: k segments
// times the O(a^2) Arb-Linial fixed-point palette.
func KA2Palette(n, a, k int, eps float64) int {
	if r := coloring.Rho(n); k > r {
		k = r
	}
	return k * coloring.LinialFinalPalette(n, hpartition.ParamA(a, eps))
}

// KAColoring is the algorithm of Section 7.7: an O(k*a)-vertex-coloring
// with O(a log^(k) n) vertex-averaged complexity, for 2 <= k <= Rho(n).
// Algorithm A is the (Delta+1)-coloring of each H-set, algorithm B orients
// the set's edges by descending color (an acyclic orientation of length
// O(a)), and algorithm C recolors each completed segment along the
// orientation from a segment-specific (A+1)-color palette block. With
// k = Rho(n) this yields the O(a log* n)-coloring in O(a log* n)
// vertex-averaged rounds of Corollary 7.17.
func KAColoring(a, k int, eps float64) engine.Program {
	return func(api *engine.API) any {
		n := api.N()
		A := hpartition.ParamA(a, eps)
		windowW := 3 + coloring.DeltaPlus1Rounds(n, A)
		plan := NewPlan(n, a, k, eps, windowW, A+1, 2)
		tr := hpartition.NewTracker(api, a, eps)
		sink := func(ms []engine.Msg) { tr.Absorb(api, ms) }
		plan.runPartitionWindows(api, tr)
		i := tr.HIndex
		s, lo, hi := plan.SegmentOf(int(i))
		// Settle, then Delta+1-color the H-set and exchange set colors.
		tr.Absorb(api, api.Next())
		c := coloring.DeltaPlus1OnSet(api, coloring.SetMembers(tr), A, sink)
		setColor := map[int]int{}
		coloring.BroadcastChosen(api, segKind, int32(c))
		for _, m := range api.Next() {
			if mc, ok := coloring.AsChosen(m, segKind); ok {
				if kk := api.NeighborIndex(m.From); tr.NbrH[kk] == i {
					setColor[kk] = int(mc)
					continue
				}
			}
			tr.Absorb(api, []engine.Msg{m})
		}

		tr.AbsorbUntil(api, plan.cStart[s])
		// Parents within the segment: later H-set, or same set with a
		// higher Delta+1 color.
		var parents []int
		for kk, h := range tr.NbrH {
			if h <= lo || h > hi {
				continue
			}
			if h > i || (h == i && setColor[kk] > c) {
				parents = append(parents, kk)
			}
		}
		return coloring.RecolorWave(api, parents, s*(A+1))
	}
}

const segKind = 4

// KAPalette returns the total color budget of KAColoring: k*(A+1).
func KAPalette(n, a, k int, eps float64) int {
	if r := coloring.Rho(n); k > r {
		k = r
	}
	return k * (hpartition.ParamA(a, eps) + 1)
}
