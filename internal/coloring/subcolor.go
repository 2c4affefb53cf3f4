package coloring

import (
	"vavg/internal/engine"
	"vavg/internal/memo"
	"vavg/internal/wire"
)

// Sink consumes messages that a coloring subroutine receives but does not
// itself understand (Join announcements, terminations, foreign traffic).
// Composed algorithms pass their partition tracker's Absorb here so that
// active-degree accounting stays correct while a subroutine runs. Like an
// inbox, msgs is valid only during the call.
type Sink func(msgs []engine.Msg)

// NopSink ignores stray messages.
func NopSink([]engine.Msg) {}

// Color messages travel on the engine's integer fast lane. A "color"
// message (wire.TagColor) announces the sender's current color within a
// coloring subroutine instance, with the step number disambiguating
// pipelined instances; a "chosen" message (wire.TagChosen) announces a
// final (or phase-final) color choice under an algorithm-specific kind
// namespace.

// BroadcastChosen announces a final (or phase-final) color choice to all
// neighbors on the fast lane. Kind is the caller's namespace, keeping
// concurrent subroutines of composed algorithms apart.
func BroadcastChosen(api *engine.API, kind, c int32) {
	api.BroadcastInt(wire.Pack(wire.TagChosen, wire.Pair(kind, c)))
}

// AsChosen decodes a chosen-color announcement in the given kind
// namespace; ok is false for any other message.
func AsChosen(m engine.Msg, kind int32) (c int32, ok bool) {
	x, isInt := m.AsInt()
	if !isInt || wire.Tag(x) != wire.TagChosen || wire.PairHi(wire.Payload(x)) != kind {
		return 0, false
	}
	return wire.PairLo(wire.Payload(x)), true
}

func broadcastColor(api *engine.API, step int, c int) {
	api.BroadcastInt(wire.Pack(wire.TagColor, wire.Pair(int32(step), int32(c))))
}

func asColor(m engine.Msg) (step int, c int, ok bool) {
	x, isInt := m.AsInt()
	if !isInt || wire.Tag(x) != wire.TagColor {
		return 0, 0, false
	}
	p := wire.Payload(x)
	return int(wire.PairHi(p)), int(wire.PairLo(p)), true
}

// memberSet answers "is this sender part of my subroutine instance".
type memberSet struct {
	idx map[int32]bool // neighbor IDs
}

func newMemberSet(api *engine.API, members []int) memberSet {
	ids := api.NeighborIDs()
	m := memberSet{idx: make(map[int32]bool, len(members))}
	for _, k := range members {
		m.idx[ids[k]] = true
	}
	return m
}

// IteratedLinial runs Procedure Arb-Linial-Coloring on a synchronized set
// of vertices: parentIdx are the neighbor indices of the caller's parents
// under an acyclic orientation of the instance with out-degree at most A.
// Initial colors are vertex IDs (a proper n-coloring). All instance
// vertices must start in the same round and run in lockstep. The routine
// performs IteratedLinialRounds(n, A) exchanges and returns the final
// color, in [0, LinialFinalPalette(n, A)).
func IteratedLinial(api *engine.API, parentIdx []int, A int, sink Sink) int {
	sched := LinialSchedule(api.N(), A)
	ids := api.NeighborIDs()
	parentColors := make([]int, len(parentIdx))
	for j, k := range parentIdx {
		parentColors[j] = int(ids[k])
	}
	parentOf := make(map[int32]int, len(parentIdx)) // vertex ID -> slot
	for j, k := range parentIdx {
		parentOf[ids[k]] = j
	}
	c := api.ID()
	for step := 1; step < len(sched); step++ {
		c = LinialStep(sched[step-1], A, c, parentColors)
		if step == len(sched)-1 {
			break // no one needs my color for a further step
		}
		broadcastColor(api, step, c)
		msgs := api.Next()
		var stray []engine.Msg
		for _, m := range msgs {
			mstep, mc, ok := asColor(m)
			if !ok {
				stray = append(stray, m)
				continue
			}
			if j, isParent := parentOf[m.From]; isParent && mstep == step {
				parentColors[j] = mc
			}
		}
		if len(stray) > 0 {
			sink(stray)
		}
	}
	return c
}

// IteratedLinialRounds returns the number of exchanges IteratedLinial
// performs for an n-vertex graph and out-degree bound A: one per reduction
// step except the last. This is O(log* n).
func IteratedLinialRounds(n, A int) int {
	steps := len(LinialSchedule(n, A)) - 1
	if steps <= 0 {
		return 0
	}
	return steps - 1
}

// kwPhasesMemo memoizes kwPhases like linialPlanMemo: every vertex of
// a run needs the same schedule, at boot (through KWRounds) and in KW.
var kwPhasesMemo memo.Map[linialKey, []int] // keyed by {m, A}

// kwPhases returns the palette sizes at the start of each KW halving
// phase, beginning at m and ending when the palette is at most A+1. The
// schedule is memoized per (m, A): repeat calls return the same backing
// array, which callers must treat as read-only.
func kwPhases(m, A int) []int {
	return kwPhasesMemo.Get(linialKey{m, A}, func() []int { return kwPhasesSearch(m, A) })
}

// kwPhasesSearch is kwPhases without the memo.
func kwPhasesSearch(m, A int) []int {
	var phases []int
	for m > A+1 {
		phases = append(phases, m)
		groups := (m + 2*(A+1) - 1) / (2 * (A + 1))
		m = groups * (A + 1)
	}
	return phases
}

// KWRounds returns the number of exchanges KWReduce performs when
// reducing a proper m-coloring to A+1 colors: O(A log(m/A)) — with
// m = O(A^2), O(A log A).
func KWRounds(m, A int) int {
	total := 0
	for range kwPhases(m, A) {
		total += 2 * (A + 1)
	}
	return total
}

// KWReduce applies Kuhn-Wattenhofer palette halving to reduce a proper
// m-coloring of the member set (within which this vertex has at most A
// neighbors) to a proper coloring with palette [0, A+1). All instance
// vertices start in the same round with consistent (m, A). In each phase
// the current classes are split into groups of 2(A+1); the classes of a
// group take turns (one round each) choosing a free color from the
// group's fresh (A+1)-color target palette, so each phase halves the
// palette at a cost of 2(A+1) rounds.
func KWReduce(api *engine.API, members []int, myColor, m, A int, sink Sink) int {
	ms := newMemberSet(api, members)
	c := myColor
	for range kwPhases(m, A) {
		groupSize := 2 * (A + 1)
		group := c / groupSize
		class := c % groupSize
		base := group * (A + 1)
		taken := make(map[int]bool) // colors announced this phase
		chosen := -1
		for r := 0; r < groupSize; r++ {
			if r == class {
				for cand := base; ; cand++ {
					if !taken[cand] {
						chosen = cand
						break
					}
				}
				BroadcastChosen(api, kwKind, int32(chosen))
			}
			msgs := api.Next()
			var stray []engine.Msg
			for _, msg := range msgs {
				mc, ok := AsChosen(msg, kwKind)
				if !ok || !ms.idx[msg.From] {
					stray = append(stray, msg)
					continue
				}
				taken[int(mc)] = true
			}
			if len(stray) > 0 {
				sink(stray)
			}
		}
		if chosen < 0 {
			panic("coloring: KW vertex never scheduled (improper input coloring?)")
		}
		c = chosen
	}
	return c
}

const kwKind = 1

// DeltaPlus1Rounds returns the exchange count of DeltaPlus1OnSet for an
// n-vertex graph with within-set degree bound A: iterated Linial plus KW.
func DeltaPlus1Rounds(n, A int) int {
	return IteratedLinialRounds(n, A) + KWRounds(LinialFinalPalette(n, A), A)
}

// DeltaPlus1OnSet colors the member set with at most A+1 colors, where A
// bounds this vertex's degree within the set, in DeltaPlus1Rounds(n, A)
// exchanges: iterated Linial from IDs oriented by descending ID, then KW
// reduction. This is the library's stand-in for the Barenboim-Elkin
// linear-in-Delta (Delta+1)-coloring invoked by the paper on H-sets; its
// O(A log A + log* n) running time preserves the paper's O(a ...) shape
// (see DESIGN.md, substitution 1).
func DeltaPlus1OnSet(api *engine.API, members []int, A int, sink Sink) int {
	ids := api.NeighborIDs()
	var parents []int
	for _, k := range members {
		if int(ids[k]) > api.ID() {
			parents = append(parents, k)
		}
	}
	c := IteratedLinial(api, parents, A, sink)
	return KWReduce(api, members, c, LinialFinalPalette(api.N(), A), A, sink)
}

// RecolorWave is the recolor wave of Sections 7.4 and 7.7 and of Procedure
// Arb-Color: the vertex waits until every parent (a neighbor index) has
// terminated with an int color, then returns the first color >= base that
// no parent took. Along an acyclic orientation the wave takes as many
// rounds as the longest path.
func RecolorWave(api *engine.API, parents []int, base int) int {
	parentFinal := map[int]int{} // neighbor index -> final color
	for {
		ready := true
		for _, k := range parents {
			if _, ok := parentFinal[k]; !ok {
				ready = false
				break
			}
		}
		if ready {
			used := map[int]bool{}
			for _, k := range parents {
				used[parentFinal[k]] = true
			}
			for c := base; ; c++ {
				if !used[c] {
					return c
				}
			}
		}
		for _, m := range api.Next() {
			if f, ok := m.Data.(engine.Final); ok {
				if c, ok := f.Output.(int); ok {
					parentFinal[api.NeighborIndex(m.From)] = c
				}
			}
		}
	}
}
