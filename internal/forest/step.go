package forest

import "vavg/internal/engine"

// Step (state-machine) forms of the decomposition. Each turn reproduces
// one round of the blocking form, so the two forms are byte-identical.

// Start drives the decomposition as a step sub-machine, mirroring
// JoinAndSettle: the entry turn takes the first partition round, every
// following turn absorbs and takes another until the vertex joins, and the
// two post-join rounds (the join round's tail absorb, then the settle
// round) end with the orientation computed. done runs in the settle turn.
func (d *Decomp) Start(api *engine.API, done func() engine.Step) engine.Step {
	settle2 := func(api *engine.API, inbox []engine.Msg) engine.Step {
		d.Tr.Absorb(api, inbox)
		d.computeOrientation(api)
		return done()
	}
	settle1 := func(api *engine.API, inbox []engine.Msg) engine.Step {
		d.Tr.Absorb(api, inbox)
		return engine.Continue(settle2)
	}
	var join engine.StepFn
	join = func(api *engine.API, inbox []engine.Msg) engine.Step {
		d.Tr.Absorb(api, inbox)
		if d.Tr.Advance(api) {
			return engine.Continue(settle1)
		}
		return engine.Continue(join)
	}
	if d.Tr.Advance(api) {
		return engine.Continue(settle1)
	}
	return engine.Continue(join)
}

// StartWC drives the worst-case schedule of the classical procedure
// (baseline.wcDecomp): partition rounds until the vertex joins, one merged
// sleep to the global bound ell, then the settle round. done runs in the
// settle turn.
func (d *Decomp) StartWC(api *engine.API, ell int, done func() engine.Step) engine.Step {
	settle := func(api *engine.API, inbox []engine.Msg) engine.Step {
		d.Tr.Absorb(api, inbox)
		d.computeOrientation(api)
		return done()
	}
	var join engine.StepFn
	join = func(api *engine.API, inbox []engine.Msg) engine.Step {
		d.Tr.Absorb(api, inbox)
		if d.Tr.HIndex != 0 {
			// The blocking form idles to round ell and settles one round
			// later; a single sleep accumulates the same absorbs.
			k := ell + 1 - api.Round()
			if k < 1 {
				k = 1
			}
			return engine.Sleep(k, settle)
		}
		d.Tr.Advance(api)
		return engine.Continue(join)
	}
	d.Tr.Advance(api)
	return engine.Continue(join)
}

// StepProgram is the step form of Program.
func StepProgram(a int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			d := NewDecomp(api, a, eps)
			return d.Start(api, func() engine.Step {
				return engine.Done(d.Output(api))
			})
		}
	}
}
