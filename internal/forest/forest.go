// Package forest implements Procedure Parallelized-Forest-Decomposition
// (Section 7.1): an O(a)-forests-decomposition of the input graph's edges
// with O(1) vertex-averaged complexity, against a worst case of
// Theta(log n) for the classical Procedure Forest-Decomposition it
// parallelizes.
//
// The procedure drives Procedure Partition; immediately upon formation of
// H-set H_i, each joining vertex orients its incident edges (toward the
// endpoint in the higher-indexed H-set, or toward the higher ID within the
// same set) and labels its outgoing edges with distinct labels from
// {1,...,outdeg} <= {1,...,A}. Each label class is a forest because every
// vertex has at most one outgoing edge per label and the orientation is
// acyclic.
package forest

import (
	"fmt"

	"vavg/internal/check"
	"vavg/internal/engine"
	"vavg/internal/graph"
	"vavg/internal/hpartition"
)

// Output is the per-vertex result of the decomposition.
type Output struct {
	// H is the vertex's H-set index (1-based).
	H int32
	// Labels maps each out-neighbor's vertex ID to the forest label
	// (1-based) this vertex assigned to the connecting edge.
	Labels map[int32]int32
}

// Decomp is the per-vertex composable state: a partition Tracker plus the
// orientation and labels computed at settle time. Blocking programs call
// JoinAndSettle; step forms embed a Decomp by value, Init its Tracker, and
// drive its Turn from their own turn.
type Decomp struct {
	Tr hpartition.Tracker
	// OutIdx lists neighbor indices of outgoing edges (the "parents" of
	// this vertex under the orientation), ascending.
	OutIdx []int
	// OutLabels[j] is the label of the j-th outgoing edge (j+1 by
	// construction, kept explicit for clarity).
	OutLabels []int32

	at decompAt // what the next Turn does
}

// NewDecomp initializes decomposition state.
func NewDecomp(api *engine.API, a int, eps float64) *Decomp {
	d := new(Decomp)
	d.Tr.Init(api, a, eps)
	return d
}

// computeOrientation classifies each incident edge. Outgoing edges point
// to neighbors in later H-sets (or still active, hence joining later), or
// to same-set neighbors with higher ID.
func (d *Decomp) computeOrientation(api *engine.API) {
	my := d.Tr.HIndex
	ids := api.NeighborIDs()
	for k, h := range d.Tr.NbrH {
		out := false
		switch {
		case h <= 0: // still active (joins later) or terminated foreign
			out = h == 0
		case h > my:
			out = true
		case h == my:
			out = int(ids[k]) > api.ID()
		}
		if out {
			d.OutIdx = append(d.OutIdx, k)
			d.OutLabels = append(d.OutLabels, int32(len(d.OutIdx)))
		}
	}
}

// JoinAndSettle runs partition rounds until the vertex joins, idles to
// round ell, then runs the settle round. ell is 0 for Procedure
// Parallelized-Forest-Decomposition, whose settle round follows the join
// round, and the partition bound hpartition.EllBound for the classical
// Procedure Forest-Decomposition, whose vertices all settle together.
func (d *Decomp) JoinAndSettle(api *engine.API, ell int) {
	for {
		if joined, _ := d.Tr.Step(api); joined {
			break
		}
	}
	d.Tr.AbsorbUntil(api, ell)
	// Settle round: the Joins of the previous round arrive.
	d.Tr.Absorb(api, api.Next())
	d.computeOrientation(api)
}

// Output assembles the per-vertex Output of the decomposition.
func (d *Decomp) Output(api *engine.API) Output {
	ids := api.NeighborIDs()
	labels := make(map[int32]int32, len(d.OutIdx))
	for j, k := range d.OutIdx {
		labels[ids[k]] = d.OutLabels[j]
	}
	return Output{H: d.Tr.HIndex, Labels: labels}
}

// Program is standalone Procedure Parallelized-Forest-Decomposition: each
// vertex joins an H-set, settles, and terminates with its Output; its
// final broadcast carries the labels to the edge heads. A vertex joining
// in partition round i terminates in round i+2, so the vertex-averaged
// complexity is O(1) (Theorem 7.1).
func Program(a int, eps float64) engine.Program {
	return func(api *engine.API) any {
		d := NewDecomp(api, a, eps)
		d.JoinAndSettle(api, 0)
		return d.Output(api)
	}
}

// Collect reconstructs the global orientation and labeling from the
// per-vertex outputs of a Program run, for validation: every edge is
// oriented away from the vertex that labeled it.
func Collect(g *graph.Graph, outputs []any) (check.Orientation, map[graph.Edge]int, error) {
	orient := make(check.Orientation, g.M())
	labels := make(map[graph.Edge]int, g.M())
	for v := 0; v < g.N(); v++ {
		out, ok := outputs[v].(Output)
		if !ok {
			return nil, nil, fmt.Errorf("forest: vertex %d output %T, want Output", v, outputs[v])
		}
		//lint:ignore detorder any violating edge is a valid error witness; the success path writes one map entry per edge
		for head, label := range out.Labels {
			if !g.HasEdge(v, int(head)) {
				return nil, nil, fmt.Errorf("forest: vertex %d labeled non-edge to %d", v, head)
			}
			e := graph.Edge{U: int32(v), V: head}
			if e.U > e.V {
				e.U, e.V = e.V, e.U
			}
			if _, dup := orient[e]; dup {
				return nil, nil, fmt.Errorf("forest: edge {%d,%d} oriented twice", e.U, e.V)
			}
			orient[e] = head
			labels[e] = int(label)
		}
	}
	return orient, labels, nil
}

// HIndexes extracts the per-vertex H-indices from a Program run.
func HIndexes(outputs []any) []int {
	h := make([]int, len(outputs))
	for v, o := range outputs {
		h[v] = int(o.(Output).H)
	}
	return h
}
