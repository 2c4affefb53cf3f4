// Package check validates the outputs of the distributed algorithms:
// proper vertex and edge colorings, maximal independent sets, maximal
// matchings, H-partitions, forest decompositions and acyclic orientations.
// Every algorithm in the library is audited by these checkers in tests, and
// the benchmark harness can audit runs on demand.
package check

import (
	"fmt"

	"vavg/internal/graph"
)

// VertexColoring verifies that colors is a proper coloring of g using at
// most maxColors colors (maxColors <= 0 skips the palette audit). Colors
// must be non-negative.
func VertexColoring(g *graph.Graph, colors []int, maxColors int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("check: %d colors for %d vertices", len(colors), g.N())
	}
	distinct := map[int]bool{}
	for u := 0; u < g.N(); u++ {
		if colors[u] < 0 {
			return fmt.Errorf("check: vertex %d has negative color %d", u, colors[u])
		}
		distinct[colors[u]] = true
		for _, v := range g.Neighbors(u) {
			if int(v) > u && colors[u] == colors[v] {
				return fmt.Errorf("check: edge {%d,%d} monochromatic with color %d", u, v, colors[u])
			}
		}
	}
	if maxColors > 0 && len(distinct) > maxColors {
		return fmt.Errorf("check: %d distinct colors exceed budget %d", len(distinct), maxColors)
	}
	return nil
}

// CountColors returns the number of distinct values in colors.
func CountColors(colors []int) int {
	distinct := map[int]bool{}
	for _, c := range colors {
		distinct[c] = true
	}
	return len(distinct)
}

// EdgeColoring verifies a proper edge coloring: colors maps each
// undirected edge (keyed U<V) to a color, every edge is colored, and edges
// sharing an endpoint have distinct colors, with at most maxColors colors.
func EdgeColoring(g *graph.Graph, colors map[graph.Edge]int, maxColors int) error {
	if len(colors) != g.M() {
		return fmt.Errorf("check: %d colored edges, graph has %d", len(colors), g.M())
	}
	distinct := map[int]bool{}
	for u := 0; u < g.N(); u++ {
		seen := map[int]graph.Edge{}
		for _, v := range g.Neighbors(u) {
			e := normEdge(u, int(v))
			c, ok := colors[e]
			if !ok {
				return fmt.Errorf("check: edge {%d,%d} uncolored", e.U, e.V)
			}
			if c < 0 {
				return fmt.Errorf("check: edge {%d,%d} has negative color %d", e.U, e.V, c)
			}
			distinct[c] = true
			if other, dup := seen[c]; dup {
				return fmt.Errorf("check: edges {%d,%d} and {%d,%d} share endpoint %d and color %d",
					e.U, e.V, other.U, other.V, u, c)
			}
			seen[c] = e
		}
	}
	if maxColors > 0 && len(distinct) > maxColors {
		return fmt.Errorf("check: %d distinct edge colors exceed budget %d", len(distinct), maxColors)
	}
	return nil
}

func normEdge(u, v int) graph.Edge {
	if u > v {
		u, v = v, u
	}
	return graph.Edge{U: int32(u), V: int32(v)}
}

// MIS verifies that inSet is a maximal independent set of g.
func MIS(g *graph.Graph, inSet []bool) error {
	if len(inSet) != g.N() {
		return fmt.Errorf("check: MIS membership has length %d, want %d", len(inSet), g.N())
	}
	for u := 0; u < g.N(); u++ {
		coveredBy := inSet[u]
		for _, v := range g.Neighbors(u) {
			if inSet[u] && inSet[int(v)] {
				return fmt.Errorf("check: MIS not independent: edge {%d,%d}", u, v)
			}
			if inSet[int(v)] {
				coveredBy = true
			}
		}
		if !coveredBy {
			return fmt.Errorf("check: MIS not maximal: vertex %d uncovered", u)
		}
	}
	return nil
}

// MaximalMatching verifies that matched is a maximal matching: matched[v]
// is v's partner or -1, the relation is symmetric, partners are adjacent,
// and no edge has both endpoints unmatched.
func MaximalMatching(g *graph.Graph, matched []int32) error {
	if len(matched) != g.N() {
		return fmt.Errorf("check: matching has length %d, want %d", len(matched), g.N())
	}
	for u := 0; u < g.N(); u++ {
		p := matched[u]
		if int(p) >= g.N() {
			return fmt.Errorf("check: vertex %d matched to %d, outside [0,%d)", u, p, g.N())
		}
		if p >= 0 {
			if int(matched[p]) != u {
				return fmt.Errorf("check: matching not symmetric at %d<->%d", u, p)
			}
			if !g.HasEdge(u, int(p)) {
				return fmt.Errorf("check: matched pair {%d,%d} not adjacent", u, p)
			}
		}
		for _, v := range g.Neighbors(u) {
			if matched[u] < 0 && matched[v] < 0 {
				return fmt.Errorf("check: matching not maximal: edge {%d,%d} free", u, v)
			}
		}
	}
	return nil
}

// HPartition verifies the Procedure Partition invariant: hIndex[v] in
// [1,ell] for every vertex, and every v with hIndex[v]=i has at most
// maxLater neighbors w with hIndex[w] >= i (maxLater = A = (2+eps)*a).
func HPartition(g *graph.Graph, hIndex []int, maxLater int) error {
	if len(hIndex) != g.N() {
		return fmt.Errorf("check: hIndex has length %d, want %d", len(hIndex), g.N())
	}
	for u := 0; u < g.N(); u++ {
		if hIndex[u] < 1 {
			return fmt.Errorf("check: vertex %d has H-index %d < 1", u, hIndex[u])
		}
		later := 0
		for _, v := range g.Neighbors(u) {
			if hIndex[v] >= hIndex[u] {
				later++
			}
		}
		if later > maxLater {
			return fmt.Errorf("check: vertex %d (H_%d) has %d neighbors in later H-sets, budget %d",
				u, hIndex[u], later, maxLater)
		}
	}
	return nil
}

// Orientation assigns each undirected edge a direction: toward[e] is the
// vertex the edge points to (must be e.U or e.V).
type Orientation map[graph.Edge]int32

// AcyclicOrientation verifies that every edge is oriented, directions are
// valid, the orientation has no directed cycle, out-degrees are at most
// maxOut (if > 0), and the longest directed path has length at most
// maxLen (if > 0). It returns the observed max out-degree and length.
func AcyclicOrientation(g *graph.Graph, o Orientation, maxOut, maxLen int) (outDeg, length int, err error) {
	n := g.N()
	if len(o) != g.M() {
		return 0, 0, fmt.Errorf("check: %d oriented edges, graph has %d", len(o), g.M())
	}
	outAdj := make([][]int32, n)
	outCount := make([]int, n)
	//lint:ignore detorder any violating edge is a valid error witness; the success path aggregates per-edge counts
	for e, head := range o {
		if head != e.U && head != e.V {
			return 0, 0, fmt.Errorf("check: edge {%d,%d} oriented toward non-endpoint %d", e.U, e.V, head)
		}
		tail := e.U
		if head == e.U {
			tail = e.V
		}
		outAdj[tail] = append(outAdj[tail], head)
		outCount[tail]++
	}
	for v := 0; v < n; v++ {
		if outCount[v] > outDeg {
			outDeg = outCount[v]
		}
	}
	if maxOut > 0 && outDeg > maxOut {
		return outDeg, 0, fmt.Errorf("check: orientation out-degree %d exceeds %d", outDeg, maxOut)
	}
	// Longest path via topological order; a cycle leaves vertices unordered.
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		for _, w := range outAdj[v] {
			indeg[w]++
		}
	}
	var stack []int32
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			stack = append(stack, int32(v))
		}
	}
	depth := make([]int, n)
	seen := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		seen++
		for _, w := range outAdj[v] {
			if depth[v]+1 > depth[w] {
				depth[w] = depth[v] + 1
			}
			indeg[w]--
			if indeg[w] == 0 {
				stack = append(stack, w)
			}
		}
	}
	if seen != n {
		return outDeg, 0, fmt.Errorf("check: orientation contains a directed cycle")
	}
	for v := 0; v < n; v++ {
		if depth[v] > length {
			length = depth[v]
		}
	}
	if maxLen > 0 && length > maxLen {
		return outDeg, length, fmt.Errorf("check: orientation length %d exceeds %d", length, maxLen)
	}
	return outDeg, length, nil
}

// ForestDecomposition verifies an O(a)-forests-decomposition: every edge
// carries a label in [1,maxLabel], each vertex has at most one outgoing
// edge per label (so each label class is a functional forest), and the
// underlying orientation is acyclic.
func ForestDecomposition(g *graph.Graph, o Orientation, labels map[graph.Edge]int, maxLabel int) error {
	if len(labels) != g.M() {
		return fmt.Errorf("check: %d labeled edges, graph has %d", len(labels), g.M())
	}
	perLabelOut := map[[2]int32]bool{} // (tail, label)
	//lint:ignore detorder any violating edge is a valid error witness; the success path writes one set entry per edge
	for e, l := range labels {
		if l < 1 || l > maxLabel {
			return fmt.Errorf("check: edge {%d,%d} label %d outside [1,%d]", e.U, e.V, l, maxLabel)
		}
		head, ok := o[e]
		if !ok {
			return fmt.Errorf("check: labeled edge {%d,%d} not oriented", e.U, e.V)
		}
		tail := e.U
		if head == e.U {
			tail = e.V
		}
		key := [2]int32{tail, int32(l)}
		if perLabelOut[key] {
			return fmt.Errorf("check: vertex %d has two outgoing label-%d edges", tail, l)
		}
		perLabelOut[key] = true
	}
	if _, _, err := AcyclicOrientation(g, o, 0, 0); err != nil {
		return err
	}
	return nil
}
