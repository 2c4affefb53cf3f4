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

// lubyVertex is one vertex of LubyMISStep.
type lubyVertex struct {
	p     int64 // this phase's priority
	phase lubyPhase
	fn    engine.StepFn // v.turn, bound once
}

type lubyPhase uint8

const (
	lubyDraw  lubyPhase = iota // draw and broadcast a priority
	lubyBest                   // join if no neighbor drew higher
	lubyFinal                  // leave if a neighbor joined
)

// LubyMISStep is the step form of LubyMIS.
func LubyMISStep() engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		v := new(lubyVertex)
		v.fn = v.turn
		return v.fn
	}
}

func (v *lubyVertex) turn(api *engine.API, inbox []engine.Msg) engine.Step {
	switch v.phase {
	case lubyBest:
		best := true
		for _, m := range inbox {
			if q, ok := m.AsInt(); ok {
				if q > v.p || (q == v.p && int(m.From) > api.ID()) {
					best = false
				}
			}
		}
		if best {
			return engine.Done(true)
		}
		v.phase = lubyFinal
		return engine.Continue(v.fn)
	case lubyFinal:
		// Learn which neighbors joined this phase.
		for _, m := range inbox {
			if f, ok := m.Data.(engine.Final); ok {
				if in, ok := f.Output.(bool); ok && in {
					return engine.Done(false)
				}
			}
		}
	}
	v.p = api.Rand().Int63()
	api.BroadcastInt(v.p)
	v.phase = lubyBest
	return engine.Continue(v.fn)
}

// ringVertex is one vertex of Ring3ColoringStep.
type ringVertex struct {
	cv      coloring.CV
	parents [2]int // forest 1's parent: the successor
	started bool
	fn      engine.StepFn // v.turn, bound once
}

// Ring3ColoringStep is the step form of Ring3Coloring.
func Ring3ColoringStep() engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		v := new(ringVertex)
		v.fn = v.turn
		return v.fn
	}
}

func (v *ringVertex) turn(api *engine.API, inbox []engine.Msg) engine.Step {
	if !v.started {
		v.started = true
		succ := (api.ID() + 1) % api.N()
		v.parents = [2]int{-1, api.NeighborIndex(int32(succ))}
		v.cv.Start(api, 1, v.parents[:])
		return engine.Continue(v.fn)
	}
	if v.cv.Turn(api, inbox, v) {
		return engine.Done(int(v.cv.Colors()[1]))
	}
	return engine.Continue(v.fn)
}

// Stray ignores a message the Cole-Vishkin machine does not understand.
func (*ringVertex) Stray(*engine.API, engine.Msg) {}

// leaderVertex is one vertex of LeaderElectionRingStep.
type leaderVertex struct {
	my                int32
	phase             int32
	replies           int
	candidate, leader bool
	started, done     bool
	outLeft, outRight []hsMsg
	fn                engine.StepFn // v.turn, bound once
}

// LeaderElectionRingStep is the step form of LeaderElectionRing.
func LeaderElectionRingStep() engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		if api.Degree() != 2 {
			panic("baseline: leader election requires a cycle")
		}
		v := &leaderVertex{my: int32(api.ID()), candidate: true}
		v.fn = v.turn
		return v.fn
	}
}

// The ring ports: neighbor indices 0 and 1.
const leftPort, rightPort = 0, 1

func (v *leaderVertex) turn(api *engine.API, inbox []engine.Msg) engine.Step {
	switch {
	case v.done:
		return engine.Done(LeaderOutput{Leader: v.leader})
	case !v.started:
		v.started = true
		v.launch()
		v.send(api)
		return engine.Continue(v.fn)
	}
	my := v.my
	for _, m := range inbox {
		fromLeft := api.NeighborIndex(m.From) == leftPort
		batch, ok := m.Data.(hsBatch)
		if !ok {
			continue
		}
		fwd := &v.outRight // continue travel away from arrival side
		back := &v.outLeft
		if !fromLeft {
			fwd, back = &v.outLeft, &v.outRight
		}
		for _, h := range batch.Msgs {
			switch h.Kind {
			case 0: // probe
				switch {
				case h.ID == my:
					// Our own probe circumnavigated: we are leader.
					v.leader, v.candidate = true, true
					api.Commit()
					*fwd = append(*fwd, hsMsg{Kind: 2, ID: my})
					v.done = true
				case h.ID > my:
					if v.candidate {
						v.candidate = false
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
					if v.candidate && h.Phase == v.phase {
						v.replies++
					}
				} else {
					*fwd = append(*fwd, h)
				}
			case 2: // completion wave
				if h.ID != my {
					*fwd = append(*fwd, h)
					api.Commit()
					v.done = true
				}
			}
		}
	}
	// Once done, flush any last relayed messages (the completion wave) in
	// one final round before terminating.
	if !v.done && v.candidate && !v.leader && v.replies == 2 {
		v.phase++
		v.launch()
	}
	v.send(api)
	return engine.Continue(v.fn)
}

// launch queues this phase's probes in both directions.
func (v *leaderVertex) launch() {
	hops := int32(1) << v.phase
	v.outLeft = append(v.outLeft, hsMsg{Kind: 0, ID: v.my, Hops: hops, Phase: v.phase})
	v.outRight = append(v.outRight, hsMsg{Kind: 0, ID: v.my, Hops: hops, Phase: v.phase})
	v.replies = 0
}

// send flushes the queued messages; the batches keep their slices.
func (v *leaderVertex) send(api *engine.API) {
	if len(v.outLeft) > 0 {
		api.Send(leftPort, hsBatch{Msgs: v.outLeft})
	}
	if len(v.outRight) > 0 {
		api.Send(rightPort, hsBatch{Msgs: v.outRight})
	}
	v.outLeft, v.outRight = nil, nil
}
