// Package extend implements Section 8 of the paper: the general method for
// solving "problems of extension from any partial solution" with
// vertex-averaged complexity O(f(a,n)) given a worst-case f(Delta,n)
// algorithm (Theorem 8.2), and its four instantiations: (Delta+1)-vertex-
// coloring (Corollary 8.3), maximal independent set (Corollary 8.4),
// (2*Delta-1)-edge-coloring (Corollary 8.6) and maximal matching
// (Corollary 8.8).
//
// All four programs share the same skeleton: Procedure Partition runs one
// step per iteration window; the H-set formed in iteration i solves the
// problem on G(H_i) — extended against the already-final partial solution
// of H_1..H_{i-1} — inside the rest of the window, and terminates. Window
// widths are fixed functions of (n, a, eps), so every vertex computes the
// same global schedule locally. Active vertices pay the window rounds
// while waiting (exactly the RoundSum accounting of Corollary 6.4), which
// is what makes the vertex-averaged complexity O(window) = O(f(a, n)).
//
// For the two edge problems the per-window work must touch edges whose
// other endpoint terminated long ago; we therefore process every edge
// during the window of its *tail* (the earlier endpoint), with the head —
// same H-set or still active, hence alive — acting as the assigner. The
// forest labels make each tail request at most one edge per subphase and
// Cole-Vishkin forest 3-colorings sequence same-set requests, which is the
// Panconesi-Rizzi-style mechanism the paper invokes (see DESIGN.md).
package extend

import (
	"slices"

	"vavg/internal/engine"
)

// finals records the terminal outputs announced by neighbors. A zero
// finals makes its map on the first Final it absorbs: most vertices of
// the step framework terminate before they hear one.
type finals struct {
	byIdx map[int]any
}

// newFinals returns finals whose map exists from the start, for callers
// that hand the map out before the first Final arrives.
func newFinals() *finals { return &finals{byIdx: map[int]any{}} }

func (f *finals) absorb(api *engine.API, msgs []engine.Msg) {
	for _, m := range msgs {
		if fin, ok := m.Data.(engine.Final); ok {
			if f.byIdx == nil {
				f.byIdx = map[int]any{}
			}
			f.byIdx[api.NeighborIndex(m.From)] = fin.Output
		}
	}
}

// classSweep runs numClasses one-round turns over the proper set-coloring
// myClass of the member set. In its own turn the vertex calls act, which
// may broadcast; every round's messages are passed to observe.
func classSweep(api *engine.API, numClasses, myClass int, act func(), observe func([]engine.Msg)) {
	for cls := 0; cls < numClasses; cls++ {
		if cls == myClass {
			act()
		}
		observe(api.Next())
	}
}

// DeltaPlus1 is the (Delta+1)-vertex-coloring of Corollary 8.3: each
// vertex ends with a color in {0, ..., deg(v)}, so at most Delta+1 colors
// are used, with vertex-averaged complexity O(a log a + log* n) — a
// function of the arboricity, not of Delta (we substitute Linial+KW plus a
// greedy class sweep for the Fraigniaud et al. list-coloring the paper
// cites; see DESIGN.md). It is the list-coloring instance of the general
// framework with the default lists {0..deg(v)}. The per-vertex output is
// the final color (int).
func DeltaPlus1(a int, eps float64) engine.Program {
	return Framework(a, eps, listColorProblem{})
}

// MIS is the maximal-independent-set algorithm of Corollary 8.4: the
// vertex-averaged complexity is O(a log a + log* n) and the per-vertex
// output reports membership (bool). Each H-set is (A+1)-colored and its
// color classes take turns joining the MIS unless dominated by an earlier
// decision. It is the misProblem instance of the general framework.
func MIS(a int, eps float64) engine.Program {
	return Framework(a, eps, misProblem{})
}

const sweepKind = 3

// MISSet converts the outputs of an MIS run to a membership slice.
func MISSet(outputs []any) []bool {
	in := make([]bool, len(outputs))
	for v, o := range outputs {
		in[v] = o.(bool)
	}
	return in
}

// Colors converts the outputs of a coloring run to a color slice.
func Colors(outputs []any) []int {
	cs := make([]int, len(outputs))
	for v, o := range outputs {
		cs[v] = o.(int)
	}
	return cs
}

// sortedKeys returns map keys in ascending order for deterministic
// iteration.
func sortedKeys[V any](m map[int32]V) []int32 {
	ks := make([]int32, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}
