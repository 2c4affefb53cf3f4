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

// startWindows is the step form of runPartitionWindows (perWindow nil):
// one partition advance in the first round of each window, sleeping
// through window remainders and foreign C-blocks. done runs in the turn
// after the join round's tail absorb — the turn the blocking form returns
// in.
func (p *Plan) startWindows(api *engine.API, tr *hpartition.Tracker,
	done func(api *engine.API) engine.Step) engine.Step {
	s, m := 0, 0
	joinTail := func(api *engine.API, inbox []engine.Msg) engine.Step {
		tr.Absorb(api, inbox)
		return done(api)
	}
	var window, tail engine.StepFn
	window = func(api *engine.API, inbox []engine.Msg) engine.Step {
		tr.Absorb(api, inbox)
		if s >= len(p.SegLen) {
			panic("segment: vertex failed to join within the planned partition rounds")
		}
		if tr.Advance(api) {
			return engine.Continue(joinTail)
		}
		return engine.Continue(tail)
	}
	tail = func(api *engine.API, inbox []engine.Msg) engine.Step {
		tr.Absorb(api, inbox)
		sleep := p.W - 1
		m++
		if m == p.SegLen[s] {
			// C-block of segment s: this vertex is still active, so it
			// sleeps through it along with the window remainder.
			sleep += p.CWidth[s]
			s++
			m = 0
		}
		return engine.Sleep(sleep, window)
	}
	if tr.Advance(api) {
		return engine.Continue(joinTail)
	}
	return engine.Continue(tail)
}

// KA2Step is the step form of KA2Coloring.
func KA2Step(a, k int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		n := api.N()
		plan := NewPlan(n, a, k, eps, 2, 0, coloring.IteratedLinialRounds(n, hpartition.ParamA(a, eps)))
		tr := hpartition.NewTracker(api, a, eps)
		sink := func(ms []engine.Msg) { tr.Absorb(api, ms) }
		P := coloring.LinialFinalPalette(n, plan.A)

		var seg int
		var lo, hi int32

		color := func(api *engine.API) engine.Step {
			members, parents := coloring.SegmentParents(api, tr, lo, hi)
			return coloring.StartIteratedLinial(api, members, parents, plan.A, sink,
				func(c int) engine.Step { return engine.Done(c + seg*P) })
		}
		wake := func(api *engine.API, inbox []engine.Msg) engine.Step {
			tr.Absorb(api, inbox)
			return color(api)
		}
		settle := func(api *engine.API, inbox []engine.Msg) engine.Step {
			tr.Absorb(api, inbox)
			seg, lo, hi = plan.SegmentOf(int(tr.HIndex))
			// Wait for the segment's C-block.
			if api.Round() < plan.cStart[seg] {
				return engine.Sleep(plan.cStart[seg]-api.Round(), wake)
			}
			return color(api)
		}
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			return plan.startWindows(api, tr, func(api *engine.API) engine.Step {
				return engine.Continue(settle)
			})
		}
	}
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
