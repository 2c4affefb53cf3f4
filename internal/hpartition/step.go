package hpartition

import (
	"vavg/internal/engine"
)

// Step (state-machine) forms of the partition programs. Each turn is one
// round of the blocking form: absorb the messages delivered since the
// previous turn, then take the same join decision the blocking loop body
// takes — so the step and goroutine executions are byte-identical.

// vertex is one vertex of StepProgram.
type vertex struct {
	t  Tracker
	fn engine.StepFn // v.turn, bound once
}

// StepProgram is the step form of Program: standalone Procedure Partition
// with the Join announcement carried by the engine's Final broadcast.
func StepProgram(a int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		v := new(vertex)
		v.t.Init(api, a, eps)
		v.fn = v.turn
		return v.fn
	}
}

func (v *vertex) turn(api *engine.API, inbox []engine.Msg) engine.Step {
	v.t.Absorb(api, inbox)
	v.t.round++
	if v.t.activeDeg <= v.t.A {
		// Terminating output doubles as the Join announcement.
		return engine.Done(Join{Index: v.t.round})
	}
	return engine.Continue(v.fn)
}

// generalVertex is one vertex of GeneralStepProgram.
type generalVertex struct {
	eps       float64
	seen      []bool // by neighbor index: terminated
	activeDeg int
	phase, r  int // doubling phase, and rounds taken in it
	index     int32
	fn        engine.StepFn // v.turn, bound once
}

// GeneralStepProgram is the step form of GeneralProgram: the
// unknown-arboricity partition with doubling thresholds.
func GeneralStepProgram(eps float64) engine.StepProgram {
	if eps <= 0 || eps > 2 {
		panic("hpartition: eps must be in (0,2]")
	}
	return func(api *engine.API) engine.StepFn {
		v := &generalVertex{eps: eps, seen: make([]bool, api.Degree()), activeDeg: api.Degree(), phase: 1}
		v.fn = v.turn
		return v.fn
	}
}

func (v *generalVertex) turn(api *engine.API, inbox []engine.Msg) engine.Step {
	for _, m := range inbox {
		if _, ok := m.Data.(engine.Final); ok {
			if k := api.NeighborIndex(m.From); !v.seen[k] {
				v.seen[k] = true
				v.activeDeg--
			}
		}
	}
	if v.r == generalPhaseLen(v.phase, v.eps) {
		v.phase++
		v.r = 0
	}
	v.r++
	v.index++
	if v.activeDeg <= GeneralThreshold(v.phase, v.eps) {
		return engine.Done(GeneralJoin{Index: v.index, Phase: int32(v.phase)})
	}
	return engine.Continue(v.fn)
}
