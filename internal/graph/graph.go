// Package graph provides the static undirected graphs on which the
// distributed algorithms of this library run, together with generators for
// the graph families used in the paper's complexity tables and structural
// utilities (degeneracy, Nash-Williams density, components, BFS).
//
// Graphs are stored in compressed sparse row (CSR) form with precomputed
// reverse-edge indices: for the k-th neighbor v of u, Rev tells at which
// position u appears in v's adjacency list. This lets the simulation engine
// deliver messages into per-directed-edge slots without locking.
package graph

import (
	"fmt"
	"sort"
)

// Graph is an immutable simple undirected graph. Vertices are 0..N-1.
type Graph struct {
	// Off has length N+1; the neighbors of u are Adj[Off[u]:Off[u+1]].
	Off []int32
	// Adj lists neighbor vertex IDs, sorted ascending within each vertex.
	Adj []int32
	// Rev maps each directed-edge position to the position of its reverse:
	// if Adj[p] = v for an edge (u,v), then Adj[Rev[p]] = u within v's range.
	Rev []int32
	// Name optionally describes the generator that produced the graph.
	Name string
	// ArborBound is a certified upper bound on the arboricity, when the
	// generator knows one, and 0 otherwise.
	ArborBound int
	// Perm is non-nil on relabeled engine views built by Relabel: it maps
	// between the view's cache-friendly vertex numbering and the original
	// IDs, which remain the observable ones. See relabel.go for the view's
	// invariants (its Adj is NOT ascending in view IDs, so such a graph
	// must never be persisted or structurally validated).
	Perm *Relabeling

	n int
	// mapped is the read-only file mapping backing Off/Adj/Rev for graphs
	// loaded zero-copy from a raw CSR store (see LoadCSR); nil for
	// heap-resident graphs. It pins the mapping for the graph's lifetime.
	mapped []byte
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// MappedBytes reports the size of the read-only file mapping backing this
// graph's CSR arrays, or 0 for a heap-resident graph. Mapped bytes are
// shared (page cache, every process mapping the same file) and
// reclaimable, unlike heap bytes.
func (g *Graph) MappedBytes() uint64 { return uint64(len(g.mapped)) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.Adj) / 2 }

// Degree returns the degree of vertex u.
func (g *Graph) Degree(u int) int { return int(g.Off[u+1] - g.Off[u]) }

// Neighbors returns the (sorted) neighbor IDs of u. The returned slice
// aliases the graph's storage and must not be modified.
func (g *Graph) Neighbors(u int) []int32 { return g.Adj[g.Off[u]:g.Off[u+1]] }

// neighborScanCutoff is the degree below which NeighborIndex scans the
// adjacency list linearly. The paper's graphs are sparse (bounded
// arboricity), so most lookups hit short lists where a branch-predictable
// scan beats sort.Search's function-pointer indirection.
const neighborScanCutoff = 16

// NeighborIndex returns the position of v within u's adjacency list, or -1
// if u and v are not adjacent. It runs in O(log deg(u)); below a small
// degree cutoff it scans linearly, exiting early on the sorted order.
func (g *Graph) NeighborIndex(u, v int) int {
	return SearchAdj(g.Neighbors(u), int32(v))
}

// SearchAdj returns the position of w within the ascending adjacency slice
// adj, or -1 if absent — NeighborIndex over any sorted ID slice. The engine
// uses it to search a relabeled view's original-ID adjacency (Relabeling.
// AdjOrig), which is ascending per vertex even though the view's Adj is not.
func SearchAdj(adj []int32, w int32) int {
	if len(adj) <= neighborScanCutoff {
		for i, x := range adj {
			if x >= w {
				if x == w {
					return i
				}
				return -1
			}
		}
		return -1
	}
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= w })
	if i < len(adj) && adj[i] == w {
		return i
	}
	return -1
}

// MaxDegree returns Delta(G).
func (g *Graph) MaxDegree() int {
	d := 0
	for u := 0; u < g.n; u++ {
		if deg := g.Degree(u); deg > d {
			d = deg
		}
	}
	return d
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v int) bool { return g.NeighborIndex(u, v) >= 0 }

// Edge is an undirected edge; U < V always holds after normalization.
type Edge struct{ U, V int32 }

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges are merged; self-loops are rejected.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder { return &Builder{n: n} }

// reserve sizes the edge list for m more AddEdge calls, so a generator
// that knows its edge count grows the list once instead of by doubling.
func (b *Builder) reserve(m int) {
	if m > cap(b.edges)-len(b.edges) {
		b.edges = append(make([]Edge, 0, len(b.edges)+m), b.edges...)
	}
}

// AddEdge records the undirected edge {u,v}. It panics on out-of-range
// vertices or self-loops, which always indicate generator bugs.
func (b *Builder) AddEdge(u, v int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at vertex %d", u))
	}
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n))
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, Edge{int32(u), int32(v)})
}

// NumEdges returns the number of edges added so far (before deduplication).
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build produces the immutable CSR graph in O(n+m) time, with no
// comparison sort. Adjacency lists come out strictly ascending and Rev
// pairs each directed edge with its reverse; both follow from the edge
// set alone, whatever order the edges were added in.
//
// The edges are put in (U,V) order by two stable counting passes, by V
// into a scratch array and then by U back into the edge list. The
// scratch is the array that becomes Rev, and the counting array becomes
// Off, so Build allocates no second edge list. Half the generators add
// their edges in (U,V) order already; one scan detects that and skips
// both passes. Duplicates, adjacent once sorted, are merged, and one
// fill pass in (U,V) order writes Adj and Rev.
func (b *Builder) Build() *Graph {
	n := b.n
	// off[k+1] is the running cursor of bucket k in every pass; after the
	// fill, off[:n+1] is the CSR offset array.
	off := make([]int32, n+2)
	var rev []int32
	if !edgesSorted(b.edges) {
		rev = make([]int32, 2*len(b.edges))
		countEdges(off, b.edges, func(e Edge) int32 { return e.V })
		for _, e := range b.edges {
			i := 2 * off[e.V+1]
			off[e.V+1]++
			rev[i], rev[i+1] = e.U, e.V
		}
		countEdges(off, b.edges, func(e Edge) int32 { return e.U })
		for i := 0; i < len(rev); i += 2 {
			u := rev[i]
			b.edges[off[u+1]] = Edge{u, rev[i+1]}
			off[u+1]++
		}
	}
	uniq := b.edges[:0]
	for i, e := range b.edges {
		if i == 0 || e != b.edges[i-1] {
			uniq = append(uniq, e)
		}
	}
	b.edges = uniq

	clear(off)
	for _, e := range uniq {
		off[e.U+2]++
		off[e.V+2]++
	}
	prefixSum(off)
	m2 := 2 * len(uniq)
	if rev == nil {
		rev = make([]int32, m2)
	}
	g := &Graph{n: n, Off: off[:n+1], Adj: make([]int32, m2), Rev: rev[:m2]}
	for _, e := range uniq {
		pu, pv := off[e.U+1], off[e.V+1]
		g.Adj[pu], g.Adj[pv] = e.V, e.U
		g.Rev[pu], g.Rev[pv] = pv, pu
		off[e.U+1]++
		off[e.V+1]++
	}
	return g
}

// edgesSorted reports whether edges is in nondecreasing (U,V) order.
func edgesSorted(edges []Edge) bool {
	for i := 1; i < len(edges); i++ {
		p, e := edges[i-1], edges[i]
		if e.U < p.U || (e.U == p.U && e.V < p.V) {
			return false
		}
	}
	return true
}

// countEdges sets off[k+1] to the number of edges whose key is below k,
// the first slot of bucket k in a counting pass over edges by key.
func countEdges(off []int32, edges []Edge, key func(Edge) int32) {
	clear(off)
	for _, e := range edges {
		off[key(e)+2]++
	}
	prefixSum(off)
}

func prefixSum(xs []int32) {
	for i := 1; i < len(xs); i++ {
		xs[i] += xs[i-1]
	}
}

// FromEdges builds a graph directly from an edge list.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	b.reserve(len(edges))
	for _, e := range edges {
		b.AddEdge(int(e.U), int(e.V))
	}
	return b.Build()
}

// Edges returns all undirected edges, each once, with U < V, sorted.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.M())
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			if int32(u) < v {
				out = append(out, Edge{int32(u), v})
			}
		}
	}
	return out
}

// Subgraph returns the subgraph induced by keep (keep[v] true), along with
// the mapping orig[i] = original ID of new vertex i.
func (g *Graph) Subgraph(keep []bool) (*Graph, []int32) {
	remap := make([]int32, g.n)
	var orig []int32
	for v := 0; v < g.n; v++ {
		if keep[v] {
			remap[v] = int32(len(orig))
			orig = append(orig, int32(v))
		} else {
			remap[v] = -1
		}
	}
	b := NewBuilder(len(orig))
	for _, v := range orig {
		for _, w := range g.Neighbors(int(v)) {
			if v < w && keep[w] {
				b.AddEdge(int(remap[v]), int(remap[w]))
			}
		}
	}
	sub := b.Build()
	sub.Name = g.Name + "/induced"
	sub.ArborBound = g.ArborBound
	return sub, orig
}
