package segment

import (
	"vavg/internal/coloring"
	"vavg/internal/engine"
	"vavg/internal/hpartition"
)

// Step (state-machine) forms of the segmentation algorithms. Each turn
// reproduces one round of the blocking form; the idle stretches of the
// window geometry (window remainders, foreign C-blocks, waits for the own
// segment's C-block) become merged sleeps whose wake turn absorbs exactly
// the messages the blocking form absorbs round by round, so the two forms
// are byte-identical.

// windowWalk is the step form of runPartitionWindows (perWindow nil) as a
// value machine: one partition advance in the first round of each window,
// sleeping through window remainders and foreign C-blocks. Its zero value
// stands at the top of the first window: the walk's first Turn, with an
// empty inbox, takes the first partition advance.
type windowWalk struct {
	s, m int // segment, and window within it, of the next advance
	at   walkAt
}

// walkAt is what a windowWalk's next turn does.
type walkAt uint8

const (
	walkWindow walkAt = iota // partition advance at the top of a window
	walkTail                 // sleep through the window's remainder
	walkJoined               // absorb the join round's tail, then done
)

// Turn absorbs inbox into tr and takes the walk's next step. It returns
// the rounds until the walk's next turn, or done in the turn after the
// join round — the turn runPartitionWindows returns in.
//
//vavg:stepform
func (w *windowWalk) Turn(api *engine.API, inbox []engine.Msg, p *Plan, tr *hpartition.Tracker) (wait int, done bool) {
	tr.Absorb(api, inbox)
	switch w.at {
	case walkJoined:
		return 0, true
	case walkTail:
		wait = p.W - 1
		w.m++
		if w.m == p.SegLen[w.s] {
			// C-block of segment s: this vertex is still active, so it
			// sleeps through it along with the window remainder.
			wait += p.CWidth[w.s]
			w.s++
			w.m = 0
		}
		w.at = walkWindow
		return wait, false
	}
	if w.s >= len(p.SegLen) {
		panic("segment: vertex failed to join within the planned partition rounds")
	}
	w.at = walkTail
	if tr.Advance(api) {
		w.at = walkJoined
	}
	return 1, false
}

// walkStep runs a windowWalk as a StepFn chain for startWindows.
type walkStep struct {
	walk windowWalk
	p    *Plan
	tr   *hpartition.Tracker
	done func(api *engine.API) engine.Step
	fn   engine.StepFn
}

func (s *walkStep) turn(api *engine.API, inbox []engine.Msg) engine.Step {
	wait, done := s.walk.Turn(api, inbox, s.p, s.tr)
	if done {
		return s.done(api)
	}
	return engine.Sleep(wait, s.fn)
}

// startWindows is the step form of runPartitionWindows (perWindow nil), an
// adaptor over windowWalk: the first partition advance runs in the
// caller's turn, and done runs in the turn after the join round's tail
// absorb — the turn the blocking form returns in.
func (p *Plan) startWindows(api *engine.API, tr *hpartition.Tracker,
	done func(api *engine.API) engine.Step) engine.Step {
	s := &walkStep{p: p, tr: tr, done: done}
	s.fn = s.turn
	return s.turn(api, nil)
}

// ka2Vertex is one vertex of KA2Step: its partition tracker, window walk
// and segment Arb-Linial run, driven by one StepFn that dispatches on
// phase.
type ka2Vertex struct {
	plan   *Plan
	p      int // Arb-Linial palette: segment s colors with [s*p, (s+1)*p)
	tr     hpartition.Tracker
	walk   windowWalk
	lin    coloring.Linial
	seg    int
	lo, hi int32
	phase  ka2Phase
	fn     engine.StepFn // v.turn, bound once
}

type ka2Phase uint8

const (
	ka2Walk   ka2Phase = iota // partition windows, through the join round's tail
	ka2Settle                 // settle round: find the segment, wait for its C-block
	ka2Wake                   // first round of the segment's C-block
	ka2Color                  // Arb-Linial on the segment
)

// KA2Step is the step form of KA2Coloring.
func KA2Step(a, k int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		n := api.N()
		plan := NewPlan(n, a, k, eps, 2, 0, coloring.IteratedLinialRounds(n, hpartition.ParamA(a, eps)))
		v := &ka2Vertex{plan: plan, p: coloring.LinialFinalPalette(n, plan.A)}
		v.tr.Init(api, a, eps)
		v.fn = v.turn
		return v.fn
	}
}

func (v *ka2Vertex) turn(api *engine.API, inbox []engine.Msg) engine.Step {
	switch v.phase {
	case ka2Walk:
		wait, done := v.walk.Turn(api, inbox, v.plan, &v.tr)
		if !done {
			return engine.Sleep(wait, v.fn)
		}
		v.phase = ka2Settle
		return engine.Continue(v.fn)
	case ka2Settle:
		v.tr.Absorb(api, inbox)
		v.seg, v.lo, v.hi = v.plan.SegmentOf(int(v.tr.HIndex))
		// Wait for the segment's C-block.
		if wait := v.plan.cStart[v.seg] - api.Round(); wait > 0 {
			v.phase = ka2Wake
			return engine.Sleep(wait, v.fn)
		}
		return v.color(api)
	case ka2Wake:
		v.tr.Absorb(api, inbox)
		return v.color(api)
	}
	if v.lin.Turn(api, inbox, v) {
		return v.done()
	}
	return engine.Continue(v.fn)
}

// color starts Arb-Linial on the segment.
func (v *ka2Vertex) color(api *engine.API) engine.Step {
	_, parents := coloring.SegmentParents(api, &v.tr, v.lo, v.hi)
	v.phase = ka2Color
	if v.lin.Start(api, parents, v.plan.A) {
		return v.done()
	}
	return engine.Continue(v.fn)
}

// done terminates with the Arb-Linial color in the segment's palette block.
func (v *ka2Vertex) done() engine.Step {
	return engine.Done(v.lin.Color() + v.seg*v.p)
}

// Stray absorbs a message the Linial machine does not understand.
func (v *ka2Vertex) Stray(api *engine.API, m engine.Msg) {
	v.tr.Absorb(api, []engine.Msg{m})
}

// KAStep is the step form of KAColoring.
func KAStep(a, k int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		n := api.N()
		A := hpartition.ParamA(a, eps)
		windowW := 3 + coloring.DeltaPlus1Rounds(n, A)
		plan := NewPlan(n, a, k, eps, windowW, A+1, 2)
		tr := hpartition.NewTracker(api, a, eps)
		sink := func(ms []engine.Msg) { tr.Absorb(api, ms) }

		var i int32
		var seg int
		var lo, hi int32
		var members []int
		var c int
		setColor := map[int]int{}

		greedy := func(api *engine.API) engine.Step {
			// Parents within the segment: later H-set, or same set with a
			// higher Delta+1 color.
			var parents []int
			for kk, h := range tr.NbrH {
				if h <= lo || h > hi {
					continue
				}
				if h > i || (h == i && setColor[kk] > c) {
					parents = append(parents, kk)
				}
			}
			base := seg * (A + 1)
			parentFinal := map[int]int{}
			var wait engine.StepFn
			var check func(api *engine.API) engine.Step
			check = func(api *engine.API) engine.Step {
				ready := true
				for _, kk := range parents {
					if _, ok := parentFinal[kk]; !ok {
						ready = false
						break
					}
				}
				if ready {
					used := map[int]bool{}
					for _, kk := range parents {
						used[parentFinal[kk]] = true
					}
					for cand := base; ; cand++ {
						if !used[cand] {
							return engine.Done(cand)
						}
					}
				}
				return engine.Continue(wait)
			}
			wait = func(api *engine.API, inbox []engine.Msg) engine.Step {
				for _, m := range inbox {
					if f, ok := m.Data.(engine.Final); ok {
						if col, ok := f.Output.(int); ok {
							parentFinal[api.NeighborIndex(m.From)] = col
						}
					}
				}
				return check(api)
			}
			return check(api)
		}
		wake := func(api *engine.API, inbox []engine.Msg) engine.Step {
			tr.Absorb(api, inbox)
			return greedy(api)
		}
		exch := func(api *engine.API, inbox []engine.Msg) engine.Step {
			for _, m := range inbox {
				if mc, ok := coloring.AsChosen(m, segKind); ok {
					if kk := api.NeighborIndex(m.From); tr.NbrH[kk] == i {
						setColor[kk] = int(mc)
						continue
					}
				}
				tr.Absorb(api, []engine.Msg{m})
			}
			if api.Round() < plan.cStart[seg] {
				return engine.Sleep(plan.cStart[seg]-api.Round(), wake)
			}
			return greedy(api)
		}
		settle := func(api *engine.API, inbox []engine.Msg) engine.Step {
			tr.Absorb(api, inbox)
			i = tr.HIndex
			seg, lo, hi = plan.SegmentOf(int(i))
			for kk, h := range tr.NbrH {
				if h == i {
					members = append(members, kk)
				}
			}
			return coloring.StartDeltaPlus1OnSet(api, members, A, sink,
				func(col int) engine.Step {
					c = col
					coloring.BroadcastChosen(api, segKind, int32(c))
					return engine.Continue(exch)
				})
		}
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			return plan.startWindows(api, tr, func(api *engine.API) engine.Step {
				return engine.Continue(settle)
			})
		}
	}
}
