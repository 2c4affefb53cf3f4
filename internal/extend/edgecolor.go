package extend

import (
	"fmt"
	"slices"

	"vavg/internal/coloring"
	"vavg/internal/engine"
	"vavg/internal/graph"
	"vavg/internal/hpartition"
	"vavg/internal/wire"
)

// edgeRequest asks the receiving endpoint (the head) to color the edge
// connecting sender and receiver; Used lists the colors already present on
// edges at the sender. The slice payload keeps it on the general lane; the
// head's reply — a bare color — travels back fast-lane as wire.TagAssign.
type edgeRequest struct {
	Used []int32
}

// EdgeOutput is the per-vertex output of EdgeColoring: the colors this
// vertex assigned, as head, to edges keyed by the tail's vertex ID.
type EdgeOutput struct {
	Assigned map[int32]int32
}

// EdgeColoringWindow returns the iteration window width of the
// edge-coloring and matching programs: settle + Cole-Vishkin forest
// 3-coloring + 3A two-round intra-set subphases + A two-round inter-set
// subphases.
func EdgeColoringWindow(n, a int, eps float64) int {
	A := hpartition.ParamA(a, eps)
	return 2 + coloring.CVForestRounds(n) + 6*A + 2*A
}

// edgeState is the per-vertex bookkeeping shared by the member and active
// roles of the edge-coloring program.
type edgeState struct {
	used     map[int32]bool  // colors on edges incident to this vertex
	assigned map[int32]int32 // tail ID -> color, for edges this vertex assigned
}

func (st *edgeState) usedList() []int32 {
	// Sorted: the list travels inside edgeRequest messages, and message
	// bytes must not depend on map-iteration order.
	return sortedKeys(st.used)
}

// serve assigns a color to every edgeRequest in msgs, in tail-ID
// order, choosing the smallest color free at both endpoints, and replies
// with edgeAssign.
func (st *edgeState) serve(api *engine.API, msgs []engine.Msg) {
	if !slices.ContainsFunc(msgs, isEdgeRequest) {
		return // most serve rounds carry no request
	}
	reqs := map[int32]edgeRequest{}
	for _, m := range msgs {
		if r, ok := m.Data.(edgeRequest); ok {
			reqs[m.From] = r
		}
	}
	for _, tail := range sortedKeys(reqs) {
		tailUsed := map[int32]bool{}
		for _, c := range reqs[tail].Used {
			tailUsed[c] = true
		}
		var color int32
		for color = 0; st.used[color] || tailUsed[color]; color++ {
		}
		st.used[color] = true
		st.assigned[tail] = color
		api.SendIDInt(int(tail), wire.Pack(wire.TagAssign, int64(color)))
	}
}

func isEdgeRequest(m engine.Msg) bool {
	_, ok := m.Data.(edgeRequest)
	return ok
}

// record stores the color the head picked for this vertex's pending
// request, if present in msgs.
func (st *edgeState) record(msgs []engine.Msg, head int32) {
	for _, m := range msgs {
		if x, ok := m.AsInt(); ok && wire.Tag(x) == wire.TagAssign && m.From == head {
			st.used[int32(wire.Payload(x))] = true
		}
	}
}

// EdgeColoring is the (2*Delta-1)-edge-coloring algorithm of Corollary
// 8.6, with vertex-averaged complexity O(a + log* n). Every edge is
// colored during the window of its tail (the endpoint joining an H-set
// first): the tail requests a color from the head — alive by construction
// — which assigns the smallest color free at both endpoints, so every
// color is at most deg(u)+deg(v)-2 <= 2*Delta-2. Forest labels give each
// tail one request per subphase and Cole-Vishkin forest colorings prevent
// a vertex from requesting and assigning within the same subphase.
func EdgeColoring(a int, eps float64) engine.Program {
	return func(api *engine.API) any {
		A := hpartition.ParamA(a, eps)
		cvr := coloring.CVForestRounds(api.N())
		tr := hpartition.NewTracker(api, a, eps)
		st := &edgeState{used: map[int32]bool{}, assigned: map[int32]int32{}}
		sink := func(ms []engine.Msg) { tr.Absorb(api, ms) }

		for {
			joined, _ := tr.Step(api)
			if joined {
				break
			}
			// Active window body: idle through settle+CV+intra, then serve
			// the A inter-set subphases as head.
			sink(api.Idle(1 + cvr + 6*A))
			for j := 1; j <= A; j++ {
				reqs := api.Next()
				sink(reqs)
				st.serve(api, reqs)
				sink(api.Next())
			}
		}

		// Member window body.
		sink(api.Next()) // settle
		ids := api.NeighborIDs()
		my := tr.HIndex
		intraParent := make([]int, A+1) // label -> neighbor index (intra)
		interOut := make([]int, A+1)    // label -> neighbor index (inter)
		for j := range intraParent {
			intraParent[j] = -1
			interOut[j] = -1
		}
		label := 0
		for k, h := range tr.NbrH {
			switch {
			case h == 0:
				label++
				interOut[label] = k
			case h == my && int(ids[k]) > api.ID():
				label++
				intraParent[label] = k
			}
		}
		if label > A {
			panic(fmt.Sprintf("extend: vertex %d out-degree %d exceeds A=%d", api.ID(), label, A))
		}
		cv := coloring.CVForests(api, A, intraParent, sink)

		// Intra-set subphases: (label j, CV color c).
		for j := 1; j <= A; j++ {
			for c := int32(0); c < 3; c++ {
				mine := intraParent[j] >= 0 && cv[j] == c
				if mine {
					api.SendID(int(ids[intraParent[j]]), edgeRequest{Used: st.usedList()})
				}
				reqs := api.Next()
				sink(reqs)
				st.serve(api, reqs)
				msgs := api.Next()
				sink(msgs)
				if mine {
					st.record(msgs, ids[intraParent[j]])
				}
			}
		}
		// Inter-set subphases: request from the still-active head.
		for j := 1; j <= A; j++ {
			mine := interOut[j] >= 0
			if mine {
				api.SendID(int(ids[interOut[j]]), edgeRequest{Used: st.usedList()})
			}
			sink(api.Next())
			msgs := api.Next()
			sink(msgs)
			if mine {
				st.record(msgs, ids[interOut[j]])
			}
		}
		return EdgeOutput{Assigned: st.assigned}
	}
}

// CollectEdgeColors reassembles the global edge coloring from per-vertex
// EdgeOutput values: each edge appears exactly once, keyed by its head.
func CollectEdgeColors(g *graph.Graph, outputs []any) (map[graph.Edge]int, error) {
	colors := make(map[graph.Edge]int, g.M())
	for v := 0; v < g.N(); v++ {
		out, ok := outputs[v].(EdgeOutput)
		if !ok {
			return nil, fmt.Errorf("extend: vertex %d output %T, want EdgeOutput", v, outputs[v])
		}
		//lint:ignore detorder any violating edge is a valid error witness; the success path writes one map entry per edge
		for tail, c := range out.Assigned {
			if !g.HasEdge(v, int(tail)) {
				return nil, fmt.Errorf("extend: vertex %d assigned color to non-edge {%d,%d}", v, v, tail)
			}
			e := graph.Edge{U: int32(v), V: tail}
			if e.U > e.V {
				e.U, e.V = e.V, e.U
			}
			if _, dup := colors[e]; dup {
				return nil, fmt.Errorf("extend: edge {%d,%d} colored twice", e.U, e.V)
			}
			colors[e] = int(c)
		}
	}
	return colors, nil
}
