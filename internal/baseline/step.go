package baseline

import (
	"vavg/internal/coloring"
	"vavg/internal/engine"
	"vavg/internal/forest"
	"vavg/internal/hpartition"
)

// Step (state-machine) forms of the worst-case baselines. Each turn
// reproduces one round of the blocking form, so the two forms are
// byte-identical.

// startWCDecomp is the step form of wcDecomp; done runs in the settle
// turn, mirroring wcDecomp's return.
func startWCDecomp(api *engine.API, a int, eps float64,
	done func(d *forest.Decomp) engine.Step) engine.Step {
	d := forest.NewDecomp(api, a, eps)
	return d.StartWC(api, hpartition.EllBound(api.N(), eps), func() engine.Step {
		return done(d)
	})
}

// ForestDecompositionWCStep is the step form of ForestDecompositionWC.
func ForestDecompositionWCStep(a int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			return startWCDecomp(api, a, eps, func(d *forest.Decomp) engine.Step {
				return engine.Done(d.Output(api))
			})
		}
	}
}

// ArbLinialWCStep is the step form of ArbLinialWC.
func ArbLinialWCStep(a int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			return startWCDecomp(api, a, eps, func(d *forest.Decomp) engine.Step {
				ids := api.NeighborIDs()
				parents := make([]int, len(d.OutIdx))
				for j, k := range d.OutIdx {
					parents[j] = int(ids[k])
				}
				return engine.Done(coloring.LinialStep(api.N(), d.Tr.A, api.ID(), parents))
			})
		}
	}
}

// IteratedArbLinialWCStep is the step form of IteratedArbLinialWC.
func IteratedArbLinialWCStep(a int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			return startWCDecomp(api, a, eps, func(d *forest.Decomp) engine.Step {
				var members, parents []int
				for k := 0; k < api.Degree(); k++ {
					members = append(members, k)
				}
				parents = append(parents, d.OutIdx...)
				return coloring.StartIteratedLinial(api, members, parents, d.Tr.A,
					func(ms []engine.Msg) { d.Tr.Absorb(api, ms) },
					func(c int) engine.Step { return engine.Done(c) })
			})
		}
	}
}

// ArbColorWCStep is the step form of ArbColorWC.
func ArbColorWCStep(a int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			return startWCDecomp(api, a, eps, func(d *forest.Decomp) engine.Step {
				parentFinal := map[int]int{}
				var wait engine.StepFn
				var check func(api *engine.API) engine.Step
				check = func(api *engine.API) engine.Step {
					ready := true
					for _, k := range d.OutIdx {
						if _, ok := parentFinal[k]; !ok {
							ready = false
							break
						}
					}
					if ready {
						used := map[int]bool{}
						for _, k := range d.OutIdx {
							used[parentFinal[k]] = true
						}
						for c := 0; ; c++ {
							if !used[c] {
								return engine.Done(c)
							}
						}
					}
					return engine.Continue(wait)
				}
				wait = func(api *engine.API, inbox []engine.Msg) engine.Step {
					for _, m := range inbox {
						if f, ok := m.Data.(engine.Final); ok {
							if c, ok := f.Output.(int); ok {
								parentFinal[api.NeighborIndex(m.From)] = c
							}
						}
					}
					return check(api)
				}
				return check(api)
			})
		}
	}
}

// MISByColoringWCStep is the step form of MISByColoringWC.
func MISByColoringWCStep(a int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			return startWCDecomp(api, a, eps, func(d *forest.Decomp) engine.Step {
				var members, parents []int
				for k := 0; k < api.Degree(); k++ {
					members = append(members, k)
				}
				parents = append(parents, d.OutIdx...)
				sink := func(ms []engine.Msg) { d.Tr.Absorb(api, ms) }
				return coloring.StartIteratedLinial(api, members, parents, d.Tr.A, sink,
					func(c int) engine.Step {
						palette := coloring.LinialFinalPalette(api.N(), d.Tr.A)
						inMIS, dominated := false, false
						cls := 0
						var recv engine.StepFn
						send := func(api *engine.API) engine.Step {
							if cls == c && !dominated {
								inMIS = true
								coloring.BroadcastChosen(api, wcMISKind, 1)
							}
							return engine.Continue(recv)
						}
						recv = func(api *engine.API, inbox []engine.Msg) engine.Step {
							for _, m := range inbox {
								if _, ok := coloring.AsChosen(m, wcMISKind); ok {
									dominated = true
								}
							}
							cls++
							if cls == palette {
								return engine.Done(inMIS)
							}
							return send(api)
						}
						return send(api)
					})
			})
		}
	}
}

// LubyMISStep is the step form of LubyMIS.
func LubyMISStep() engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		var p int64
		var bestTurn, finalTurn engine.StepFn
		draw := func(api *engine.API) engine.Step {
			p = api.Rand().Int63()
			api.BroadcastInt(p)
			return engine.Continue(bestTurn)
		}
		bestTurn = func(api *engine.API, inbox []engine.Msg) engine.Step {
			best := true
			for _, m := range inbox {
				if q, ok := m.AsInt(); ok {
					if q > p || (q == p && int(m.From) > api.ID()) {
						best = false
					}
				}
			}
			if best {
				return engine.Done(true)
			}
			return engine.Continue(finalTurn)
		}
		finalTurn = func(api *engine.API, inbox []engine.Msg) engine.Step {
			// Learn which neighbors joined this phase.
			for _, m := range inbox {
				if f, ok := m.Data.(engine.Final); ok {
					if in, ok := f.Output.(bool); ok && in {
						return engine.Done(false)
					}
				}
			}
			return draw(api)
		}
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			return draw(api)
		}
	}
}

// Ring3ColoringStep is the step form of Ring3Coloring.
func Ring3ColoringStep() engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			n := api.N()
			succ := (api.ID() + 1) % n
			k := api.NeighborIndex(int32(succ))
			parentIdx := []int{-1, k}
			return coloring.StartCVForests(api, 1, parentIdx, coloring.NopSink,
				func(cv []int32) engine.Step { return engine.Done(int(cv[1])) })
		}
	}
}

// LeaderElectionRingStep is the step form of LeaderElectionRing.
func LeaderElectionRingStep() engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		if api.Degree() != 2 {
			panic("baseline: leader election requires a cycle")
		}
		left, right := 0, 1
		my := int32(api.ID())

		candidate := true
		phase := int32(0)
		replies := 0
		leader := false
		var outLeft, outRight []hsMsg

		launch := func() {
			hops := int32(1) << phase
			outLeft = append(outLeft, hsMsg{Kind: 0, ID: my, Hops: hops, Phase: phase})
			outRight = append(outRight, hsMsg{Kind: 0, ID: my, Hops: hops, Phase: phase})
			replies = 0
		}
		send := func(api *engine.API) {
			if len(outLeft) > 0 {
				api.Send(left, hsBatch{Msgs: outLeft})
			}
			if len(outRight) > 0 {
				api.Send(right, hsBatch{Msgs: outRight})
			}
			outLeft, outRight = nil, nil
		}
		end := func(api *engine.API, _ []engine.Msg) engine.Step {
			return engine.Done(LeaderOutput{Leader: leader})
		}
		var loop engine.StepFn
		loop = func(api *engine.API, inbox []engine.Msg) engine.Step {
			done := false
			for _, m := range inbox {
				fromLeft := api.NeighborIndex(m.From) == left
				batch, ok := m.Data.(hsBatch)
				if !ok {
					continue
				}
				fwd := &outRight // continue travel away from arrival side
				back := &outLeft
				if !fromLeft {
					fwd, back = &outLeft, &outRight
				}
				for _, h := range batch.Msgs {
					switch h.Kind {
					case 0: // probe
						switch {
						case h.ID == my:
							// Our own probe circumnavigated: we are leader.
							leader, candidate = true, true
							api.Commit()
							*fwd = append(*fwd, hsMsg{Kind: 2, ID: my})
							done = true
						case h.ID > my:
							if candidate {
								candidate = false
								api.Commit()
							}
							if h.Hops > 1 {
								*fwd = append(*fwd, hsMsg{Kind: 0, ID: h.ID, Hops: h.Hops - 1, Phase: h.Phase})
							} else {
								*back = append(*back, hsMsg{Kind: 1, ID: h.ID, Phase: h.Phase})
							}
						default:
							// Smaller candidate: swallow the probe.
						}
					case 1: // reply
						if h.ID == my {
							if candidate && h.Phase == phase {
								replies++
							}
						} else {
							*fwd = append(*fwd, h)
						}
					case 2: // completion wave
						if h.ID != my {
							*fwd = append(*fwd, h)
							api.Commit()
							done = true
						}
					}
				}
			}
			if done {
				// Flush any last relayed messages (the completion wave) in
				// one final round before terminating.
				send(api)
				return engine.Continue(end)
			}
			if candidate && !leader && replies == 2 {
				phase++
				launch()
			}
			send(api)
			return engine.Continue(loop)
		}
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			launch()
			send(api)
			return engine.Continue(loop)
		}
	}
}
