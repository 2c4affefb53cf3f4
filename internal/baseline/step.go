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

// wcVertex is one vertex of the step forms built on the worst-case
// decomposition: the decomposition, then what its algorithm runs after
// it, driven by one StepFn that dispatches on phase.
type wcVertex struct {
	alg   wcAlg
	ell   int // the partition bound, where every vertex settles
	d     forest.Decomp
	lin   coloring.Linial
	wave  coloring.Wave
	phase wcPhase
	// The MIS sweep's current class, and its class count.
	cls, palette     int
	inMIS, dominated bool
	fn               engine.StepFn // v.turn, bound once
}

// wcAlg is the algorithm a wcVertex runs after the decomposition.
type wcAlg uint8

const (
	wcForest   wcAlg = iota // forest-decomp-wc: the decomposition itself
	wcOneStep               // arblinial-wc: one local Linial step
	wcIterated              // iterated-arblinial-wc: iterated Linial
	wcArbColor              // arbcolor-wc: the recolor wave
	wcMIS                   // mis-wc: iterated Linial, then the class sweep
)

type wcPhase uint8

const (
	wcDecompose wcPhase = iota // the worst-case decomposition
	wcLinial                   // iterated Linial along the orientation
	wcWave                     // recolor wave along the orientation
	wcSweep                    // MIS color-class sweep
)

// wcStep builds the step form that runs alg after the worst-case
// decomposition.
func wcStep(alg wcAlg, a int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		v := &wcVertex{alg: alg, ell: hpartition.EllBound(api.N(), eps)}
		v.d.Tr.Init(api, a, eps)
		v.fn = v.turn
		return v.fn
	}
}

func (v *wcVertex) turn(api *engine.API, inbox []engine.Msg) engine.Step {
	switch v.phase {
	case wcDecompose:
		if wait, done := v.d.Turn(api, inbox, v.ell); !done {
			return engine.Sleep(wait, v.fn)
		}
		return v.settled(api)
	case wcLinial:
		if v.lin.Turn(api, inbox, v) {
			return v.colored(api)
		}
		return engine.Continue(v.fn)
	case wcWave:
		return v.recolor(v.wave.Turn(api, inbox))
	}
	for _, m := range inbox {
		if _, ok := coloring.AsChosen(m, wcMISKind); ok {
			v.dominated = true
		}
	}
	v.cls++
	if v.cls == v.palette {
		return engine.Done(v.inMIS)
	}
	return v.sweep(api)
}

// settled starts what the algorithm runs on the settled decomposition.
func (v *wcVertex) settled(api *engine.API) engine.Step {
	switch v.alg {
	case wcForest:
		return engine.Done(v.d.Output(api))
	case wcOneStep:
		return engine.Done(coloring.LinialFromIDs(api, &v.d))
	case wcArbColor:
		v.phase = wcWave
		return v.recolor(v.wave.Start(v.d.OutIdx, 0))
	}
	v.phase = wcLinial
	if v.lin.Start(api, v.d.OutIdx, v.d.Tr.A) {
		return v.colored(api)
	}
	return engine.Continue(v.fn)
}

// colored ends iterated Linial: with its color, or with the MIS sweep
// over its color classes.
func (v *wcVertex) colored(api *engine.API) engine.Step {
	if v.alg == wcIterated {
		return engine.Done(v.lin.Color())
	}
	v.phase = wcSweep
	v.palette = coloring.LinialFinalPalette(api.N(), v.d.Tr.A)
	return v.sweep(api)
}

// sweep takes one class round: in its own class an undominated vertex
// joins the MIS.
func (v *wcVertex) sweep(api *engine.API) engine.Step {
	if v.cls == v.lin.Color() && !v.dominated {
		v.inMIS = true
		coloring.BroadcastChosen(api, wcMISKind, 1)
	}
	return engine.Continue(v.fn)
}

// recolor terminates with the wave's color once it is done.
func (v *wcVertex) recolor(done bool) engine.Step {
	if done {
		return engine.Done(v.wave.Color())
	}
	return engine.Continue(v.fn)
}

// Stray absorbs a message the Linial machine does not understand.
func (v *wcVertex) Stray(api *engine.API, m engine.Msg) {
	v.d.Tr.Absorb(api, []engine.Msg{m})
}

// ForestDecompositionWCStep is the step form of ForestDecompositionWC.
func ForestDecompositionWCStep(a int, eps float64) engine.StepProgram {
	return wcStep(wcForest, a, eps)
}

// ArbLinialWCStep is the step form of ArbLinialWC.
func ArbLinialWCStep(a int, eps float64) engine.StepProgram {
	return wcStep(wcOneStep, a, eps)
}

// IteratedArbLinialWCStep is the step form of IteratedArbLinialWC.
func IteratedArbLinialWCStep(a int, eps float64) engine.StepProgram {
	return wcStep(wcIterated, a, eps)
}

// ArbColorWCStep is the step form of ArbColorWC.
func ArbColorWCStep(a int, eps float64) engine.StepProgram {
	return wcStep(wcArbColor, a, eps)
}

// MISByColoringWCStep is the step form of MISByColoringWC.
func MISByColoringWCStep(a int, eps float64) engine.StepProgram {
	return wcStep(wcMIS, a, eps)
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
