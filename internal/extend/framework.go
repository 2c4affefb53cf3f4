package extend

import (
	"vavg/internal/coloring"
	"vavg/internal/engine"
	"vavg/internal/hpartition"
)

// Problem is an extension-from-partial-solution problem with per-vertex
// outputs (Definition 8.1): any partial solution on a subgraph can be
// extended to the whole graph without changing it. Framework (Theorem 8.2)
// converts a worst-case algorithm for such a problem — supplied as Solve,
// running on one H-set against the frozen partial solution of the earlier
// sets — into an algorithm whose vertex-averaged complexity is the H-set
// cost with Delta replaced by O(a).
type Problem interface {
	// WorkRounds returns the exact number of rounds Solve consumes on an
	// H-set of an n-vertex graph with within-set degree bound A. It must
	// be a pure function of (n, A) so that every vertex derives the same
	// window schedule.
	WorkRounds(n, A int) int
	// Solve computes this vertex's output. It runs immediately after the
	// H-set's (A+1)-coloring and must consume exactly WorkRounds rounds.
	Solve(api *engine.API, ctx *HSetContext) any
}

// HSetContext is the per-vertex view Solve receives.
type HSetContext struct {
	// A is the partition threshold (within-set degrees are at most A).
	A int
	// Members lists same-set neighbor indices.
	Members []int
	// SetColor is this vertex's color in a proper (A+1)-coloring of the
	// H-set, for sequencing within the set.
	SetColor int
	// Finals maps neighbor indices to the final outputs of neighbors that
	// terminated in earlier windows.
	Finals map[int]any
	// Sink forwards stray messages to the partition bookkeeping; receive
	// loops inside Solve must pass unrecognized messages here.
	Sink coloring.Sink
}

// FrameworkWindow returns the iteration window width for a problem.
func FrameworkWindow(n, a int, eps float64, p Problem) int {
	A := hpartition.ParamA(a, eps)
	return 2 + coloring.DeltaPlus1Rounds(n, A) + p.WorkRounds(n, A)
}

// Framework is the general method of Theorem 8.2 for vertex-output
// problems: one partition step per window; the newly formed H-set is
// settled, (A+1)-colored, then solved by p.Solve while every other active
// vertex idles through the window. The per-vertex output is Solve's
// return value.
func Framework(a int, eps float64, p Problem) engine.Program {
	return func(api *engine.API) any {
		A := hpartition.ParamA(a, eps)
		W := FrameworkWindow(api.N(), a, eps, p)
		tr := hpartition.NewTracker(api, a, eps)
		fin := newFinals()
		sink := func(ms []engine.Msg) { tr.Absorb(api, ms); fin.absorb(api, ms) }

		for {
			joined, msgs := tr.Step(api)
			fin.absorb(api, msgs)
			if joined {
				break
			}
			sink(api.Idle(W - 1))
		}
		sink(api.Next()) // settle
		ctx := &HSetContext{
			A:       A,
			Members: coloring.SetMembers(tr),
			Finals:  fin.byIdx,
			Sink:    sink,
		}
		ctx.SetColor = coloring.DeltaPlus1OnSet(api, ctx.Members, A, sink)
		return p.Solve(api, ctx)
	}
}

// misProblem solves MIS on an H-set: color classes take turns joining
// unless dominated (the reduction of Section 3.2 of [4] the paper invokes
// in Corollary 8.4).
type misProblem struct{}

func (misProblem) WorkRounds(n, A int) int { return A + 1 }

func (misProblem) Solve(api *engine.API, ctx *HSetContext) any {
	dominated := func() bool {
		for _, out := range ctx.Finals {
			if in, ok := out.(bool); ok && in {
				return true
			}
		}
		return false
	}
	inMIS := false
	domBySameSet := false
	classSweep(api, ctx.A+1, ctx.SetColor, func() {
		if !dominated() && !domBySameSet {
			inMIS = true
			coloring.BroadcastChosen(api, sweepKind, 1)
		}
	}, func(msgs []engine.Msg) {
		for _, m := range msgs {
			if c, ok := coloring.AsChosen(m, sweepKind); ok && c == 1 {
				domBySameSet = true
			}
		}
		ctx.Sink(msgs)
	})
	return inMIS
}

// listColorProblem solves (deg+1)-list-coloring on an H-set: classes of
// the set coloring take turns picking the first list color not yet used
// by a neighbor.
type listColorProblem struct {
	list func(v int) []int
}

func (listColorProblem) WorkRounds(n, A int) int { return A + 1 }

func (p listColorProblem) Solve(api *engine.API, ctx *HSetContext) any {
	list := p.list
	if list == nil {
		// Default lists {0..deg(v)}: the (Delta+1)-coloring instance.
		list = func(v int) []int {
			out := make([]int, api.Degree()+1)
			for i := range out {
				out[i] = i
			}
			return out
		}
	}
	taken := map[int]bool{}
	for _, out := range ctx.Finals {
		if c, ok := out.(int); ok {
			taken[c] = true
		}
	}
	myColor := -1
	classSweep(api, ctx.A+1, ctx.SetColor, func() {
		for _, c := range list(api.ID()) {
			if !taken[c] {
				myColor = c
				break
			}
		}
		if myColor < 0 {
			panic("extend: list exhausted (|L(v)| >= deg(v)+1 violated)")
		}
		coloring.BroadcastChosen(api, sweepKind, int32(myColor))
	}, func(msgs []engine.Msg) {
		for _, m := range msgs {
			if c, ok := coloring.AsChosen(m, sweepKind); ok {
				taken[int(c)] = true
			}
		}
		ctx.Sink(msgs)
	})
	return myColor
}

// ListColoring is the (deg+1)-list-coloring problem of Section 8.2 run
// through the general framework: every vertex v receives a color from
// list(v), which must contain at least deg(v)+1 colors, and adjacent
// vertices receive different colors. Corollary 8.3's (Delta+1)-coloring is
// the instance list(v) = {0..deg(v)}.
func ListColoring(a int, eps float64, list func(v int) []int) engine.Program {
	return Framework(a, eps, listColorProblem{list: list})
}
