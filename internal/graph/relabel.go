// Vertex relabeling for cache locality (DESIGN.md §11).
//
// Random vertex IDs turn every CSR adjacency walk and cross-shard message
// delivery into a cache miss: neighboring vertices live in unrelated cache
// lines. A reverse Cuthill–McKee (RCM) ordering renumbers vertices so that
// neighbors get nearby IDs, which clusters the engine's per-vertex state
// and per-directed-edge message slots the same way the paper's locality
// arguments cluster the algorithmic work.
//
// Two distinct products are built from one RCM order:
//
//   - Permute: a plain isomorphic relabel. The result is a fully valid
//     Graph (ascending adjacency, correct Rev) that can be persisted with
//     WriteCSRFile and passes VerifyCSRFile — this is what `vavggraph
//     relabel` writes. Running on a permuted graph gives a DIFFERENT
//     (isomorphic) execution, because vertex IDs are observable in the
//     LOCAL model: PRNG streams, ID tie-breaks, and inbox order all key on
//     them.
//
//   - Relabel: an engine view that changes only the PHYSICAL layout while
//     keeping every observable in original-ID space, so Results are
//     byte-identical to the unrelabeled run after index unmapping. The
//     view's adjacency is ordered by ORIGINAL neighbor ID within each
//     vertex (so neighbor index k means the same logical neighbor), which
//     means its Adj is generally NOT ascending in view IDs: a view must
//     never be persisted or passed to structural validation.
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Relabeling carries the translation tables of a relabeled engine view.
// All four slices are indexed as documented; Orig and New are mutual
// inverses.
type Relabeling struct {
	// Orig[new] is the original ID of view vertex new.
	Orig []int32
	// New[old] is the view ID of original vertex old.
	New []int32
	// AdjOrig[p] is the original ID of the neighbor stored at Adj[p].
	// Within each vertex's range it is ascending — the view keeps the
	// original adjacency order — so neighbor-index lookups by original ID
	// binary-search this slice.
	AdjOrig []int32
	// SlotOrig[p] is the original directed-edge position of view slot p.
	// The adversary's per-delivery drop hash is keyed by original slots so
	// faulty runs stay byte-identical under relabeling.
	SlotOrig []int32
}

// RCMOrder returns a reverse Cuthill–McKee ordering: order[i] is the
// original ID of the vertex that receives new ID i. The ordering is
// deterministic: components are discovered by scanning original IDs
// ascending, each component starts its BFS at the minimum-(degree, ID)
// vertex, the BFS visits each frontier in ascending (degree, ID), and the
// concatenated visit order is reversed (the classic RCM bandwidth
// reduction step).
func RCMOrder(g *Graph) []int32 {
	n := g.N()
	order := make([]int32, 0, n)
	// state: 0 unseen, 1 in the current component, 2 placed in the order.
	state := make([]uint8, n)
	comp := make([]int32, 0, n)
	byDegreeID := func(v, w int32) int {
		if c := cmp.Compare(g.Degree(int(v)), g.Degree(int(w))); c != 0 {
			return c
		}
		return cmp.Compare(v, w)
	}
	for scan := 0; scan < n; scan++ {
		if state[scan] != 0 {
			continue
		}
		// Pass 1: collect the component so the start vertex is well-defined.
		comp = append(comp[:0], int32(scan))
		state[scan] = 1
		for qi := 0; qi < len(comp); qi++ {
			for _, w := range g.Neighbors(int(comp[qi])) {
				if state[w] == 0 {
					state[w] = 1
					comp = append(comp, w)
				}
			}
		}
		start := slices.MinFunc(comp, byDegreeID)
		// Pass 2: Cuthill–McKee BFS from start, each frontier sorted in
		// place by (degree, ID). The queue is appended directly onto order.
		head := len(order)
		order = append(order, start)
		state[start] = 2
		for head < len(order) {
			v := order[head]
			head++
			mark := len(order)
			for _, w := range g.Neighbors(int(v)) {
				if state[w] == 1 {
					state[w] = 2
					order = append(order, w)
				}
			}
			slices.SortFunc(order[mark:], byDegreeID)
		}
	}
	// Reverse: RCM is the Cuthill–McKee order read backwards.
	slices.Reverse(order)
	return order
}

// invertOrder validates that order is a permutation of [0, g.N()) and
// returns its inverse (newID[old] = new). It panics on malformed input,
// which always indicates a caller bug.
func invertOrder(g *Graph, order []int32) []int32 {
	n := g.N()
	if len(order) != n {
		panic(fmt.Sprintf("graph: relabel order has %d entries for %d vertices", len(order), n))
	}
	newID := make([]int32, n)
	for i := range newID {
		newID[i] = -1
	}
	for i, v := range order {
		if v < 0 || int(v) >= n || newID[v] != -1 {
			panic(fmt.Sprintf("graph: relabel order is not a permutation (entry %d = %d)", i, v))
		}
		newID[v] = int32(i)
	}
	return newID
}

// Permute returns the isomorphic graph obtained by giving original vertex
// order[i] the new ID i. The result is a fully valid heap-resident Graph —
// adjacency ascending in new IDs, Rev rebuilt — suitable for persisting
// with WriteCSRFile. It does NOT carry a Relabeling: running on it is a
// different (isomorphic) execution, not a layout change.
func Permute(g *Graph, order []int32) *Graph {
	n := g.N()
	newID := invertOrder(g, order)
	ng := &Graph{n: n, Name: g.Name, ArborBound: g.ArborBound}
	ng.Off = make([]int32, n+1)
	for v := 0; v < n; v++ {
		ng.Off[v+1] = ng.Off[v] + int32(g.Degree(int(order[v])))
	}
	// One transposition pass: new vertex x, taken in ascending order,
	// joins the list of each of its neighbors, so every list fills
	// ascending without a sort.
	ng.Adj = make([]int32, len(g.Adj))
	cursor := slices.Clone(ng.Off[:n])
	for x, u := range order {
		for _, w := range g.Neighbors(int(u)) {
			y := newID[w]
			ng.Adj[cursor[y]] = int32(x)
			cursor[y]++
		}
	}
	if err := ng.pairRev(); err != nil {
		panic(err) // a permutation of a valid graph is symmetric
	}
	return ng
}

// Relabel returns the RCM engine view of g: vertex and edge storage is
// reordered for locality, but a Relabeling is attached (Graph.Perm) so the
// engine can keep every observable — vertex IDs, PRNG streams, inbox
// order, adversary decisions — in original-ID space and unmap Results.
//
// View invariants:
//
//   - Within each view vertex's range, adjacency keeps the ORIGINAL order
//     (ascending original neighbor ID): the k-th neighbor of view vertex
//     New[u] is the same logical neighbor as the k-th neighbor of u.
//     Consequently Adj is not ascending in view IDs and the view must
//     never be persisted, verified, or passed to NeighborIndex with view
//     IDs.
//   - Rev is a true involution on the view, so the engine's slot slabs
//     work unchanged.
//   - Off/Adj/Rev are fresh heap arrays; the view does not retain a file
//     mapping even when g is mmap-backed (MappedBytes reports 0).
//
// Relabeling an already-relabeled view returns it unchanged.
func Relabel(g *Graph) *Graph {
	if g.Perm != nil {
		return g
	}
	order := RCMOrder(g)
	n := g.N()
	newID := invertOrder(g, order)
	m2 := len(g.Adj)
	pm := &Relabeling{
		Orig:     order,
		New:      newID,
		AdjOrig:  make([]int32, m2),
		SlotOrig: make([]int32, m2),
	}
	ng := &Graph{n: n, Name: g.Name, ArborBound: g.ArborBound, Perm: pm}
	ng.Off = make([]int32, n+1)
	for v := 0; v < n; v++ {
		ng.Off[v+1] = ng.Off[v] + int32(g.Degree(int(order[v])))
	}
	ng.Adj = make([]int32, m2)
	ng.Rev = make([]int32, m2)
	for v := 0; v < n; v++ {
		u := order[v]
		lo, hi := g.Off[u], g.Off[u+1]
		base := ng.Off[v]
		for p := lo; p < hi; p++ {
			np := base + (p - lo)
			w := g.Adj[p]
			ng.Adj[np] = newID[w]
			pm.AdjOrig[np] = w
			pm.SlotOrig[np] = p
			// The reverse slot keeps its within-vertex offset (the view
			// preserves original adjacency order), so it lands at the same
			// offset inside w's new range.
			ng.Rev[np] = ng.Off[newID[w]] + (g.Rev[p] - g.Off[w])
		}
	}
	return ng
}
