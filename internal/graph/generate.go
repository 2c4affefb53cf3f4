package graph

import (
	"fmt"
	"math/rand"
)

// Ring returns the n-cycle (n >= 3), arboricity 2.
func Ring(n int) *Graph {
	if n < 3 {
		panic("graph: ring needs n >= 3")
	}
	b := NewBuilder(n)
	b.reserve(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	g := b.Build()
	g.Name = fmt.Sprintf("ring(%d)", n)
	g.ArborBound = 2
	return g
}

// RingShuffled returns an n-cycle visiting the vertices in a random
// order, so vertex labels carry no positional information (unlike Ring,
// where neighbors have consecutive IDs). Arboricity 2.
func RingShuffled(n int, seed int64) *Graph {
	if n < 3 {
		panic("graph: ring needs n >= 3")
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	b := NewBuilder(n)
	b.reserve(n)
	for i := 0; i < n; i++ {
		b.AddEdge(perm[i], perm[(i+1)%n])
	}
	g := b.Build()
	g.Name = fmt.Sprintf("ringshuffled(%d)", n)
	g.ArborBound = 2
	return g
}

// Path returns the n-vertex path, arboricity 1.
func Path(n int) *Graph {
	b := NewBuilder(n)
	b.reserve(n - 1)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	g := b.Build()
	g.Name = fmt.Sprintf("path(%d)", n)
	g.ArborBound = 1
	return g
}

// Star returns the star K_{1,n-1}: arboricity 1, maximum degree n-1. Stars
// are the canonical case where arboricity-dependent bounds beat
// degree-dependent ones.
func Star(n int) *Graph {
	b := NewBuilder(n)
	b.reserve(n - 1)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i)
	}
	g := b.Build()
	g.Name = fmt.Sprintf("star(%d)", n)
	g.ArborBound = 1
	return g
}

// StarForest returns ceil(n/k) stars of k leaves each, linked into one
// component by a path through the centers: arboricity 2, max degree ~k+2.
func StarForest(n, k int) *Graph {
	if k < 1 {
		panic("graph: star forest needs k >= 1")
	}
	b := NewBuilder(n)
	b.reserve(n - 1)
	prevCenter := -1
	for c := 0; c < n; c += k + 1 {
		for l := c + 1; l <= c+k && l < n; l++ {
			b.AddEdge(c, l)
		}
		if prevCenter >= 0 {
			b.AddEdge(prevCenter, c)
		}
		prevCenter = c
	}
	g := b.Build()
	g.Name = fmt.Sprintf("starforest(%d,k=%d)", n, k)
	g.ArborBound = 2
	return g
}

// CompleteBinaryTree returns a complete binary tree on n vertices
// (heap-indexed), arboricity 1.
func CompleteBinaryTree(n int) *Graph {
	b := NewBuilder(n)
	b.reserve(n - 1)
	for i := 1; i < n; i++ {
		b.AddEdge(i, (i-1)/2)
	}
	g := b.Build()
	g.Name = fmt.Sprintf("bintree(%d)", n)
	g.ArborBound = 1
	return g
}

// RandomTree returns a uniform random recursive tree on n vertices:
// vertex i attaches to a uniform earlier vertex. Arboricity 1.
func RandomTree(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	b.reserve(n - 1)
	for i := 1; i < n; i++ {
		b.AddEdge(i, rng.Intn(i))
	}
	g := b.Build()
	g.Name = fmt.Sprintf("randtree(%d)", n)
	g.ArborBound = 1
	return g
}

// Grid returns the w x h grid graph, planar, arboricity <= 2.
func Grid(w, h int) *Graph {
	b := NewBuilder(w * h)
	b.reserve((w-1)*h + w*(h-1))
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(id(x, y), id(x+1, y))
			}
			if y+1 < h {
				b.AddEdge(id(x, y), id(x, y+1))
			}
		}
	}
	g := b.Build()
	g.Name = fmt.Sprintf("grid(%dx%d)", w, h)
	g.ArborBound = 2
	return g
}

// TriangulatedGrid returns the w x h grid with one diagonal per cell:
// planar, arboricity <= 3. A stand-in for planar triangulations.
func TriangulatedGrid(w, h int) *Graph {
	b := NewBuilder(w * h)
	b.reserve((w-1)*h + w*(h-1) + (w-1)*(h-1))
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(id(x, y), id(x+1, y))
			}
			if y+1 < h {
				b.AddEdge(id(x, y), id(x, y+1))
			}
			if x+1 < w && y+1 < h {
				b.AddEdge(id(x, y), id(x+1, y+1))
			}
		}
	}
	g := b.Build()
	g.Name = fmt.Sprintf("trigrid(%dx%d)", w, h)
	g.ArborBound = 3
	return g
}

// ForestUnion returns the union of a random spanning-structure forests on n
// vertices: each forest is a uniform random recursive tree with an
// independently shuffled vertex order. The result has arboricity <= a and
// roughly a*n edges; it is the canonical bounded-arboricity family used in
// the paper's experiments sweep.
func ForestUnion(n, a int, seed int64) *Graph {
	if a < 1 {
		panic("graph: forest union needs a >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	b.reserve(a * (n - 1))
	perm := make([]int, n)
	for f := 0; f < a; f++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i := 1; i < n; i++ {
			u, v := perm[i], perm[rng.Intn(i)]
			if u != v {
				b.AddEdge(u, v)
			}
		}
	}
	g := b.Build()
	g.Name = fmt.Sprintf("forests(%d,a=%d)", n, a)
	g.ArborBound = a
	return g
}

// Gnm returns a uniform random simple graph with n vertices and (up to) m
// edges. Arboricity is not certified (ArborBound is an upper bound from
// degeneracy, computed eagerly).
func Gnm(n, m int, seed int64) *Graph {
	if max := n * (n - 1) / 2; m > max {
		m = max
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	b.reserve(m)
	seen := newEdgeSet(m)
	for drawn := 0; drawn < m; {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen.add(uint64(u)*uint64(n) + uint64(v)) {
			b.AddEdge(u, v)
			drawn++
		}
	}
	g := b.Build()
	g.Name = fmt.Sprintf("gnm(%d,%d)", n, m)
	g.ArborBound = Degeneracy(g) // degeneracy d satisfies a <= d <= 2a-1
	return g
}

// edgeSet is an open-addressing set of nonzero keys with linear probing,
// sized for its capacity at a load factor of at most 2/3; Gnm keys an
// edge u < v by u*n+v, which is never 0.
type edgeSet struct {
	slots []uint64 // 0 marks an empty slot
	shift uint
}

func newEdgeSet(capacity int) edgeSet {
	bits := uint(1)
	for 2<<bits < 3*capacity {
		bits++
	}
	return edgeSet{slots: make([]uint64, 1<<bits), shift: 64 - bits}
}

// add inserts key and reports whether it was absent.
func (s *edgeSet) add(key uint64) bool {
	mask := uint64(len(s.slots) - 1)
	for i := (key * 0x9e3779b97f4a7c15) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case key:
			return false
		case 0:
			s.slots[i] = key
			return true
		}
	}
}

// Clique returns the complete graph K_n, arboricity ceil(n/2).
func Clique(n int) *Graph {
	b := NewBuilder(n)
	b.reserve(n * (n - 1) / 2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	g := b.Build()
	g.Name = fmt.Sprintf("clique(%d)", n)
	g.ArborBound = (n + 1) / 2
	return g
}

// CliquePlusForest attaches a k-clique to a random tree on the remaining
// n-k vertices via a single edge: arboricity max(ceil(k/2), 1)+1 bound. It
// stresses the case of a dense core inside a sparse graph.
func CliquePlusForest(n, k int, seed int64) *Graph {
	if k > n {
		panic("graph: clique larger than graph")
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	b.reserve(k*(k-1)/2 + n - k)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			b.AddEdge(i, j)
		}
	}
	for i := k; i < n; i++ {
		if i == k {
			b.AddEdge(0, i)
			continue
		}
		b.AddEdge(i, k+rng.Intn(i-k))
	}
	g := b.Build()
	g.Name = fmt.Sprintf("clique+forest(%d,k=%d)", n, k)
	g.ArborBound = (k+1)/2 + 1
	return g
}

// Hypercube returns the d-dimensional hypercube (n = 2^d), arboricity <= d.
func Hypercube(d int) *Graph {
	n := 1 << d
	b := NewBuilder(n)
	b.reserve(d * n / 2)
	for u := 0; u < n; u++ {
		for bit := 0; bit < d; bit++ {
			v := u ^ (1 << bit)
			if u < v {
				b.AddEdge(u, v)
			}
		}
	}
	g := b.Build()
	g.Name = fmt.Sprintf("hypercube(%d)", d)
	g.ArborBound = (d + 1)
	return g
}

// Caterpillar returns a path of length n/2 with a leaf hanging off each
// spine vertex, arboricity 1.
func Caterpillar(n int) *Graph {
	b := NewBuilder(n)
	b.reserve(n - 1)
	spine := (n + 1) / 2
	for i := 0; i+1 < spine; i++ {
		b.AddEdge(i, i+1)
	}
	for i := spine; i < n; i++ {
		b.AddEdge(i, i-spine)
	}
	g := b.Build()
	g.Name = fmt.Sprintf("caterpillar(%d)", n)
	g.ArborBound = 1
	return g
}

// RandomRegularish returns a random graph where every vertex has degree
// close to d (via d/2 random perfect-matching-style rounds). Arboricity is
// certified by degeneracy.
func RandomRegularish(n, d int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	b.reserve((d + 1) / 2 * (n / 2 * 2))
	perm := make([]int, n)
	for r := 0; r < (d+1)/2; r++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i := 0; i+1 < n; i += 2 {
			if perm[i] != perm[i+1] {
				b.AddEdge(perm[i], perm[i+1])
			}
		}
		// Also link shifted pairs so degrees approach d rather than d/2.
		for i := 0; i < n; i++ {
			j := (i + 1) % n
			if perm[i] != perm[j] && i%2 == 1 {
				b.AddEdge(perm[i], perm[j])
			}
		}
	}
	g := b.Build()
	g.Name = fmt.Sprintf("regularish(%d,d=%d)", n, d)
	g.ArborBound = Degeneracy(g)
	return g
}

// KaryTree returns the complete k-ary tree on n vertices (heap-indexed),
// arboricity 1. For k > ceil((2+eps)*1), Procedure Partition peels it one
// level per round — leaves first, then their parents, and so on — so its
// worst case is Theta(log_k n) while the geometric level sizes keep the
// vertex-averaged complexity O(1): the cleanest witness of Theorem 6.3's
// gap on a known-arboricity family.
func KaryTree(n, k int) *Graph {
	if k < 2 {
		panic("graph: k-ary tree needs k >= 2")
	}
	b := NewBuilder(n)
	b.reserve(n - 1)
	for i := 1; i < n; i++ {
		b.AddEdge(i, (i-1)/k)
	}
	g := b.Build()
	g.Name = fmt.Sprintf("karytree(%d,k=%d)", n, k)
	g.ArborBound = 1
	return g
}
