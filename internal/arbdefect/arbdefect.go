// Package arbdefect implements Section 7.8: Procedure One-Plus-Eta-Arb-Col,
// an O(a^{1+eta})-vertex-coloring whose vertex-averaged complexity grows
// only like log log n in the graph size, against the Omega(log n / ...)
// worst-case lower bound for comparable palettes.
//
// Structure (following the paper, with the substitutions of DESIGN.md):
//
//   - Phase H: run r = ceil(2 loglog n) rounds of Procedure Partition; the
//     vertices that joined form H (all but O(n/log^2 n) of the graph), the
//     rest form the residual R.
//   - Each of H and R is processed by the same coloring stage: every H-set
//     is (A+1)-colored (Delta+1 on the set), edges are oriented toward the
//     later H-set or the higher set color — an acyclic orientation with
//     out-degree at most A and length O(A * #sets) — and then
//     H-Arbdefective-Coloring levels run along that orientation: at each
//     level a vertex waits for its same-class parents and picks the class
//     in {0..k-1} they use least, so its same-class out-degree drops to
//     floor(b/k). After ceil(log_k(A/C)) levels every class subgraph has
//     arboricity below the constant C, and iterated Linial along the
//     inherited orientation finishes with an O(C^2) palette per class.
//   - Palette blocks: classes get disjoint blocks (the paper's color-string
//     prefixes), and R's block follows H's, for a total of
//     O((3+eps)^{log_C a} * a * C^2) = O(a^{1+eta}) colors with
//     eta = O(1/log C).
//
// The paper invokes [5]'s Procedure Legal-Coloring for R and a defective
// coloring inside Procedure Partial-Orientation; both are replaced by the
// machinery above, which preserves the loglog-in-n vertex-averaged shape
// and the n-independent palette (DESIGN.md, substitution 2).
package arbdefect

import (
	"math"

	"vavg/internal/coloring"
	"vavg/internal/engine"
	"vavg/internal/hpartition"
)

// Params collects the knobs of One-Plus-Eta-Arb-Col.
type Params struct {
	// A is the arboricity bound passed to Procedure Partition.
	A int
	// Eps is the partition slack, in (0,2].
	Eps float64
	// C is the paper's "sufficiently large constant": recursion stops when
	// the class arboricity bound drops below C. Larger C means fewer
	// colors per level but a larger leaf palette.
	C int
}

// classK returns k = (3+eps)*C, the number of classes per level.
func (p Params) classK() int { return int(math.Ceil((3 + p.Eps) * float64(p.C))) }

// levels returns how many arbdefective levels run before the class bound
// drops below C, starting from out-degree bound b0. It panics for C < 1,
// for which the count would never end.
func (p Params) levels(b0 int) int {
	if p.C < 1 {
		panic("arbdefect: C must be at least 1")
	}
	k, l := p.classK(), 0
	for b := b0; b >= p.C; b = b / k {
		l++
	}
	return l
}

// classMsg announces a vertex's class choice at one arbdefective level.
type classMsg struct {
	Level  int32
	Path   int64 // class path before this level's choice
	Choice int32
}

// stage colors one partition stage (the sets with H-index in (lo, hi]).
// syncStart is the global round at which the per-set Delta+1 colorings
// begin (all stage members are settled by then); base is the first color
// of the stage's palette block. Returns the final color.
func stage(api *engine.API, tr *hpartition.Tracker, prm Params, lo, hi int32, syncStart, base int) int {
	n := api.N()
	A := hpartition.ParamA(prm.A, prm.Eps)
	sink := func(ms []engine.Msg) { tr.Absorb(api, ms) }
	tr.AbsorbUntil(api, syncStart)

	// Per-set (A+1)-coloring, all sets of the stage in parallel.
	i := tr.HIndex
	setColor := coloring.DeltaPlus1OnSet(api, coloring.SetMembers(tr), A, sink)
	nbrSet := map[int]int{}
	coloring.BroadcastChosen(api, stageKind, int32(setColor))
	for _, m := range api.Next() {
		if c, ok := coloring.AsChosen(m, stageKind); ok {
			nbrSet[api.NeighborIndex(m.From)] = int(c)
			continue
		}
		sink([]engine.Msg{m})
	}

	// Orientation: toward the later H-set, or the higher set color.
	var parents []int
	for k, h := range tr.NbrH {
		if h <= lo || h > hi {
			continue
		}
		if h > i || (h == i && nbrSet[k] > setColor) {
			parents = append(parents, k)
		}
	}

	// Arbdefective levels along the orientation.
	k := prm.classK()
	numLevels := prm.levels(A)
	segLen := int(hi - lo)
	waveBudget := numLevels*((A+1)*segLen+3) + 2
	waveEnd := api.Round() + waveBudget

	path := int64(0)
	// choices[k][l] is neighbor k's class choice at level l; paths[k][l]
	// the path it announced alongside.
	choices := map[int][]int32{}
	paths := map[int][]int64{}
	recv := func(msgs []engine.Msg) {
		for _, m := range msgs {
			cm, ok := m.Data.(classMsg)
			if !ok {
				sink([]engine.Msg{m})
				continue
			}
			kk := api.NeighborIndex(m.From)
			for int(cm.Level) >= len(choices[kk]) {
				choices[kk] = append(choices[kk], -1)
				paths[kk] = append(paths[kk], -1)
			}
			choices[kk][cm.Level] = cm.Choice
			paths[kk][cm.Level] = cm.Path
		}
	}
	for level := 0; level < numLevels; level++ {
		// Wait until every parent still sharing our path has chosen.
		for {
			ready := true
			for _, kk := range parents {
				if len(choices[kk]) <= level || choices[kk][level] < 0 {
					ready = false
					break
				}
			}
			if ready {
				break
			}
			recv(api.Next())
		}
		counts := make([]int, k)
		for _, kk := range parents {
			if paths[kk][level] == path {
				counts[choices[kk][level]]++
			}
		}
		best := 0
		for c := 1; c < k; c++ {
			if counts[c] < counts[best] {
				best = c
			}
		}
		api.Broadcast(classMsg{Level: int32(level), Path: path, Choice: int32(best)})
		recv(api.Next())
		// Keep only parents that end up in our class (same path+choice).
		var keep []int
		for _, kk := range parents {
			if paths[kk][level] == path && choices[kk][level] == int32(best) {
				keep = append(keep, kk)
			}
		}
		// Our own announcement was just made; parents who chose later in
		// wall time still count — they announced before us by wave order,
		// so choices are complete here.
		parents = keep
		path = path*int64(k) + int64(best)
	}

	// Leaf: iterated Linial among the class, along the inherited
	// orientation (out-degree < C), starting at a globally agreed round.
	for api.Round() < waveEnd {
		recv(api.Next())
	}
	c := coloring.IteratedLinial(api, parents, prm.C, sink)
	P := coloring.LinialFinalPalette(n, prm.C)
	return base + int(path)*P + c
}

const stageKind = 5

// StageBlock returns the palette block size of one stage: k^levels leaf
// classes times the O(C^2) leaf palette.
func StageBlock(n int, prm Params) int {
	k := prm.classK()
	A := hpartition.ParamA(prm.A, prm.Eps)
	block := coloring.LinialFinalPalette(n, prm.C)
	for l := 0; l < prm.levels(A); l++ {
		block *= k
	}
	return block
}

// Palette returns the total color budget of OnePlusEta: two stage blocks.
func Palette(n int, prm Params) int { return 2 * StageBlock(n, prm) }

// OnePlusEta is Procedure One-Plus-Eta-Arb-Col (Theorem 7.21): an
// O(a^{1+eta})-coloring with loglog-in-n vertex-averaged complexity.
func OnePlusEta(a int, eps float64, C int) engine.Program {
	return func(api *engine.API) any {
		n := api.N()
		prm := Params{A: a, Eps: eps, C: C}
		tr := hpartition.NewTracker(api, a, eps)
		r, ell, hSync, rSync := schedule(n, prm)
		block := StageBlock(n, prm)

		for int32(api.Round()) < int32(r) && tr.HIndex == 0 {
			tr.Step(api)
		}
		if tr.HIndex != 0 {
			tr.AbsorbUntil(api, r)
			tr.Absorb(api, api.Next()) // settle
			return stage(api, tr, prm, 0, int32(r), hSync, 0)
		}
		// Residual: finish the partition, then run the same stage.
		for tr.HIndex == 0 {
			tr.Step(api)
		}
		tr.AbsorbUntil(api, ell)
		tr.Absorb(api, api.Next()) // settle
		return stage(api, tr, prm, int32(r), int32(ell), rSync, block)
	}
}

// schedule returns OnePlusEta's round schedule, identical at every
// vertex: the vertices that join in the first r partition rounds form H,
// the partition completes by round ell, and the stages of H and of the
// residual start their colorings in rounds hSync and rSync.
func schedule(n int, prm Params) (r, ell, hSync, rSync int) {
	A := hpartition.ParamA(prm.A, prm.Eps)
	r = int(math.Ceil(2 * math.Log2(math.Max(2, math.Log2(float64(max(n, 4)))))))
	ell = hpartition.EllBound(n, prm.Eps)
	r = min(r, ell)
	hSync = r + 2
	hEnd := hSync + coloring.DeltaPlus1Rounds(n, A) + 1 + prm.levels(A)*((A+1)*r+3) + 2 +
		coloring.IteratedLinialRounds(n, prm.C) + 2
	return r, ell, hSync, max(ell+2, hEnd)
}

// LegalColoringWC is the worst-case counterpart of OnePlusEta: Procedure
// Legal-Coloring of [5] (Algorithm 3 in the paper), run on the whole graph
// after a full worst-case H-partition. It uses the same arbdefective
// recursion and leaf palette as OnePlusEta — O(a^{1+eta}) colors — but
// every vertex first waits out the complete Theta(log n) partition, so
// its vertex-averaged complexity equals its worst case. It is the
// baseline the Section 7.8 row improves on.
func LegalColoringWC(a int, eps float64, C int) engine.Program {
	return func(api *engine.API) any {
		n := api.N()
		prm := Params{A: a, Eps: eps, C: C}
		ell := hpartition.EllBound(n, eps)
		tr := hpartition.NewTracker(api, a, eps)
		for tr.HIndex == 0 {
			tr.Step(api)
		}
		tr.AbsorbUntil(api, ell)
		tr.Absorb(api, api.Next()) // settle
		return stage(api, tr, prm, 0, int32(ell), ell+2, 0)
	}
}

// LegalColoringWCPalette returns the color budget of LegalColoringWC: one
// stage block.
func LegalColoringWCPalette(n int, prm Params) int { return StageBlock(n, prm) }
