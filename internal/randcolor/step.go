package randcolor

import (
	"vavg/internal/engine"
	"vavg/internal/hpartition"
	"vavg/internal/wire"
)

// Step (state-machine) forms of the randomized colorings. Every turn
// reproduces one round of the blocking form — same PRNG draw order, same
// broadcasts, same termination round — so the two forms are
// byte-identical.

// startRandColor begins the Luby-style protocol of randColorLoop as a
// step sub-machine: it performs the first round's coin flip and tentative
// broadcast immediately (within the caller's current turn, exactly where
// the blocking loop's first iteration runs) and returns the Step that
// continues the protocol. done is invoked — in the turn the color is
// secured — to produce the caller's continuation.
func startRandColor(api *engine.API, size int, forbidden map[int32]bool,
	rival func(nbrIdx int) bool, extra func([]engine.Msg),
	done func(int32) engine.Step) engine.Step {
	var cand int32
	draw := func(api *engine.API) {
		cand = -1
		if api.Rand().Intn(2) == 1 {
			free := make([]int32, 0, size)
			for c := int32(0); c < int32(size); c++ {
				if !forbidden[c] {
					free = append(free, c)
				}
			}
			if len(free) == 0 {
				panic("randcolor: palette exhausted (invariant violated)")
			}
			cand = free[api.Rand().Intn(len(free))]
			api.BroadcastInt(wire.Pack(wire.TagTent, int64(cand)))
		}
	}
	var loop engine.StepFn
	loop = func(api *engine.API, inbox []engine.Msg) engine.Step {
		extra(inbox)
		conflict := false
		for _, m := range inbox {
			if x, ok := m.AsInt(); ok && wire.Tag(x) == wire.TagTent &&
				int32(wire.Payload(x)) == cand && rival(api.NeighborIndex(m.From)) {
				conflict = true
			}
		}
		if cand >= 0 && !conflict && !forbidden[cand] {
			return done(cand)
		}
		draw(api)
		return engine.Continue(loop)
	}
	draw(api)
	return engine.Continue(loop)
}

// DeltaPlus1Step is the step form of DeltaPlus1.
func DeltaPlus1Step() engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			forbidden := map[int32]bool{}
			extra := func(msgs []engine.Msg) {
				for _, m := range msgs {
					if f, ok := m.Data.(engine.Final); ok {
						if c, ok := finalColor(f.Output); ok {
							forbidden[c] = true
						}
					}
				}
			}
			return startRandColor(api, api.Degree()+1, forbidden,
				func(int) bool { return true }, extra,
				func(c int32) engine.Step { return engine.Done(int(c)) })
		}
	}
}

// ALogLogStep is the step form of ALogLog: the same two phases, with each
// blocking wait loop unrolled into one turn per round.
func ALogLogStep(a int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		n := api.N()
		A := hpartition.ParamA(a, eps)
		ell := hpartition.EllBound(n, eps)
		t := phase1T(n, ell)
		tr := hpartition.NewTracker(api, a, eps)

		finals := map[int]int32{} // neighbor index -> flat final color
		absorb := func(msgs []engine.Msg) {
			tr.Absorb(api, msgs)
			for _, m := range msgs {
				if f, ok := m.Data.(engine.Final); ok {
					if c, ok := finalColor(f.Output); ok {
						finals[api.NeighborIndex(m.From)] = c
					}
				}
			}
		}

		// Phase 1 sets color on their private block as soon as they settle.
		settle1 := func(api *engine.API, inbox []engine.Msg) engine.Step {
			absorb(inbox)
			i := tr.HIndex
			base := int32(i-1) * int32(A+1)
			forbidden := map[int32]bool{}
			extra := func(msgs []engine.Msg) {
				absorb(msgs)
				for k, f := range finals {
					if tr.NbrH[k] == i && f >= base && f < base+int32(A+1) {
						forbidden[f-base] = true
					}
				}
			}
			return startRandColor(api, A+1, forbidden,
				func(k int) bool { return tr.NbrH[k] == i }, extra,
				func(c int32) engine.Step { return engine.Done(int(base + c)) })
		}

		// Phase 2: once joined, wait for every still-active or later-set
		// neighbor to finalize, then color on the shared block.
		base2 := int32(t) * int32(A+1)
		var waitReady engine.StepFn
		tryReady := func(api *engine.API) engine.Step {
			j := tr.HIndex
			ready := true
			for k, h := range tr.NbrH {
				if h != 0 && h <= j {
					continue
				}
				if _, done := finals[k]; !done {
					ready = false
					break
				}
			}
			if !ready {
				return engine.Continue(waitReady)
			}
			forbidden := map[int32]bool{}
			extra := func(msgs []engine.Msg) {
				absorb(msgs)
				for k, f := range finals {
					if tr.NbrH[k] > int32(t) && f >= base2 {
						forbidden[f-base2] = true
					}
				}
			}
			extra(nil)
			return startRandColor(api, A+1, forbidden,
				func(k int) bool { return tr.NbrH[k] > int32(t) }, extra,
				func(c int32) engine.Step { return engine.Done(int(base2 + c)) })
		}
		waitReady = func(api *engine.API, inbox []engine.Msg) engine.Step {
			absorb(inbox)
			return tryReady(api)
		}
		var phase2 engine.StepFn
		phase2 = func(api *engine.API, inbox []engine.Msg) engine.Step {
			absorb(inbox)
			if tr.HIndex == 0 {
				tr.Advance(api)
				return engine.Continue(phase2)
			}
			return tryReady(api)
		}

		// Phase 1: t partition rounds; joiners settle one round, then color.
		var phase1 engine.StepFn
		phase1 = func(api *engine.API, inbox []engine.Msg) engine.Step {
			absorb(inbox)
			if tr.HIndex != 0 {
				return engine.Continue(settle1)
			}
			if int32(api.Round()) < int32(t) {
				tr.Advance(api)
				return engine.Continue(phase1)
			}
			tr.Advance(api)
			return engine.Continue(phase2)
		}
		return phase1
	}
}
