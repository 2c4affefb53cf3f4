package forest

import "vavg/internal/engine"

// Step (state-machine) forms of the decomposition. Each turn reproduces
// one round of the blocking form, so the two forms are byte-identical.

// decompAt is what a Decomp's next Turn does.
type decompAt uint8

const (
	decompJoin   decompAt = iota // partition advance
	decompJoined                 // the join round's tail
	decompSettle                 // settle round: compute the orientation
)

// Turn is the step form of JoinAndSettle(api, ell) as a value machine. It
// absorbs inbox into the tracker and takes the decomposition's next step:
// a partition advance every turn until the vertex joins, then the join
// round's tail, then the settle round, which computes the orientation.
// It returns the rounds until its next turn, or done in the settle turn,
// the turn JoinAndSettle returns in. A Decomp whose Tracker was just
// initialized takes the first partition advance in its first Turn, with
// an empty inbox.
//
//vavg:stepform
func (d *Decomp) Turn(api *engine.API, inbox []engine.Msg, ell int) (wait int, done bool) {
	d.Tr.Absorb(api, inbox)
	switch d.at {
	case decompJoin:
		if d.Tr.Advance(api) {
			d.at = decompJoined
		}
		return 1, false
	case decompJoined:
		// The blocking form idles to round ell and settles one round
		// later; a single sleep accumulates the same absorbs.
		d.at = decompSettle
		return max(1, ell+1-api.Round()), false
	}
	d.computeOrientation(api)
	return 0, true
}

// vertex is one vertex of StepProgram.
type vertex struct {
	d  Decomp
	fn engine.StepFn // v.turn, bound once
}

// StepProgram is the step form of Program.
func StepProgram(a int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		v := new(vertex)
		v.d.Tr.Init(api, a, eps)
		v.fn = v.turn
		return v.fn
	}
}

func (v *vertex) turn(api *engine.API, inbox []engine.Msg) engine.Step {
	if wait, done := v.d.Turn(api, inbox, 0); !done {
		return engine.Sleep(wait, v.fn)
	}
	return engine.Done(v.d.Output(api))
}
