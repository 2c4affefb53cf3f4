package extend

import (
	"fmt"

	"vavg/internal/coloring"
	"vavg/internal/engine"
	"vavg/internal/hpartition"
	"vavg/internal/wire"
)

// Proposals (wire.TagPropose: "match with me") and acceptances
// (wire.TagAccept: "match confirmed") are payload-free fast-lane messages.
var (
	proposeMsg = wire.Pack(wire.TagPropose, 0)
	acceptMsg  = wire.Pack(wire.TagAccept, 0)
)

func hasTag(m engine.Msg, tag uint8) bool {
	x, ok := m.AsInt()
	return ok && wire.Tag(x) == tag
}

// matchState tracks whether this vertex is matched and to whom.
type matchState struct {
	partner int32 // -1 while unmatched
}

// serve accepts at most one proposal from msgs if this vertex is
// still unmatched, preferring the lowest proposer ID.
func (st *matchState) serve(api *engine.API, msgs []engine.Msg) {
	if st.partner >= 0 {
		return
	}
	best := int32(-1)
	for _, m := range msgs {
		if hasTag(m, wire.TagPropose) {
			if best < 0 || m.From < best {
				best = m.From
			}
		}
	}
	if best >= 0 {
		st.partner = best
		api.SendIDInt(int(best), acceptMsg)
	}
}

// record marks this vertex matched if head accepted its proposal.
func (st *matchState) record(msgs []engine.Msg, head int32) {
	for _, m := range msgs {
		if hasTag(m, wire.TagAccept) && m.From == head {
			st.partner = head
		}
	}
}

// MaximalMatching is the algorithm of Corollary 8.8: a maximal matching
// with vertex-averaged complexity O(a + log* n). Every edge is resolved
// during the window of its tail: an unmatched tail proposes along its
// single label-j edge of the current subphase; an unmatched head accepts
// exactly one proposal. Cole-Vishkin forest colorings keep a vertex from
// proposing and accepting in the same subphase, so no vertex is ever
// matched twice. The per-vertex output is the partner's ID (int32), or -1.
func MaximalMatching(a int, eps float64) engine.Program {
	return func(api *engine.API) any {
		A := hpartition.ParamA(a, eps)
		cvr := coloring.CVForestRounds(api.N())
		tr := hpartition.NewTracker(api, a, eps)
		st := &matchState{partner: -1}
		sink := func(ms []engine.Msg) { tr.Absorb(api, ms) }

		for {
			joined, _ := tr.Step(api)
			if joined {
				break
			}
			sink(api.Idle(1 + cvr + 6*A))
			for j := 1; j <= A; j++ {
				reqs := api.Next()
				sink(reqs)
				st.serve(api, reqs)
				sink(api.Next())
			}
		}

		sink(api.Next()) // settle
		ids := api.NeighborIDs()
		my := tr.HIndex
		intraParent := make([]int, A+1)
		interOut := make([]int, A+1)
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

		for j := 1; j <= A; j++ {
			for c := int32(0); c < 3; c++ {
				mine := intraParent[j] >= 0 && cv[j] == c && st.partner < 0
				head := int32(-1)
				if mine {
					head = ids[intraParent[j]]
					api.SendIDInt(int(head), proposeMsg)
				}
				reqs := api.Next()
				sink(reqs)
				st.serve(api, reqs)
				msgs := api.Next()
				sink(msgs)
				if mine {
					st.record(msgs, head)
				}
			}
		}
		for j := 1; j <= A; j++ {
			mine := interOut[j] >= 0 && st.partner < 0
			head := int32(-1)
			if mine {
				head = ids[interOut[j]]
				api.SendIDInt(int(head), proposeMsg)
			}
			sink(api.Next())
			msgs := api.Next()
			sink(msgs)
			if mine {
				st.record(msgs, head)
			}
		}
		return st.partner
	}
}

// Matching converts the outputs of a MaximalMatching run to a partner
// slice suitable for check.MaximalMatching.
func Matching(outputs []any) []int32 {
	m := make([]int32, len(outputs))
	for v, o := range outputs {
		m[v] = o.(int32)
	}
	return m
}
