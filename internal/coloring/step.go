package coloring

import (
	"vavg/internal/engine"
	"vavg/internal/forest"
	"vavg/internal/hpartition"
)

// Step (state-machine) forms of the coloring subroutines and algorithms.
// Each Start* constructor begins a sub-machine inside the caller's current
// turn — performing exactly the local work and sends the blocking form
// performs before its first receive — and returns the Step that continues
// it. done is invoked in the turn the subroutine's blocking form returns
// in, so compositions keep the same round structure and the two forms are
// byte-identical.

// StartIteratedLinial is the step form of IteratedLinial. members is
// accepted for signature parity with the blocking form (it is implied by
// parentIdx there too).
func StartIteratedLinial(api *engine.API, members, parentIdx []int, A int,
	sink Sink, done func(int) engine.Step) engine.Step {
	_ = members
	sched := LinialSchedule(api.N(), A)
	ids := api.NeighborIDs()
	parentColors := make([]int, len(parentIdx))
	for j, k := range parentIdx {
		parentColors[j] = int(ids[k])
	}
	parentOf := make(map[int32]int, len(parentIdx)) // vertex ID -> slot
	for j, k := range parentIdx {
		parentOf[ids[k]] = j
	}
	c := api.ID()
	if len(sched) < 2 {
		return done(c)
	}
	step := 0
	var loop engine.StepFn
	var advance func(api *engine.API) engine.Step
	advance = func(api *engine.API) engine.Step {
		step++
		c = LinialStep(sched[step-1], A, c, parentColors)
		if step == len(sched)-1 {
			return done(c) // no one needs my color for a further step
		}
		broadcastColor(api, step, c)
		return engine.Continue(loop)
	}
	loop = func(api *engine.API, inbox []engine.Msg) engine.Step {
		var stray []engine.Msg
		for _, m := range inbox {
			mstep, mc, ok := asColor(m)
			if !ok {
				stray = append(stray, m)
				continue
			}
			if j, isParent := parentOf[m.From]; isParent && mstep == step {
				parentColors[j] = mc
			}
		}
		if len(stray) > 0 {
			sink(stray)
		}
		return advance(api)
	}
	return advance(api)
}

// StartKWReduce is the step form of KWReduce.
func StartKWReduce(api *engine.API, members []int, myColor, m, A int,
	sink Sink, done func(int) engine.Step) engine.Step {
	phases := kwPhases(m, A)
	if len(phases) == 0 {
		return done(myColor)
	}
	ms := newMemberSet(api, members)
	c := myColor
	groupSize := 2 * (A + 1)
	pi, r := 0, 0
	var class, base, chosen int
	var taken map[int]bool
	var loop engine.StepFn
	send := func(api *engine.API) engine.Step {
		if r == class {
			for cand := base; ; cand++ {
				if !taken[cand] {
					chosen = cand
					break
				}
			}
			BroadcastChosen(api, kwKind, int32(chosen))
		}
		return engine.Continue(loop)
	}
	startPhase := func(api *engine.API) engine.Step {
		class = c % groupSize
		base = (c / groupSize) * (A + 1)
		taken = make(map[int]bool)
		chosen = -1
		r = 0
		return send(api)
	}
	loop = func(api *engine.API, inbox []engine.Msg) engine.Step {
		var stray []engine.Msg
		for _, msg := range inbox {
			mc, ok := AsChosen(msg, kwKind)
			if !ok || !ms.idx[msg.From] {
				stray = append(stray, msg)
				continue
			}
			taken[int(mc)] = true
		}
		if len(stray) > 0 {
			sink(stray)
		}
		r++
		if r < groupSize {
			return send(api)
		}
		if chosen < 0 {
			panic("coloring: KW vertex never scheduled (improper input coloring?)")
		}
		c = chosen
		pi++
		if pi == len(phases) {
			return done(c)
		}
		return startPhase(api)
	}
	return startPhase(api)
}

// StartDeltaPlus1OnSet is the step form of DeltaPlus1OnSet.
func StartDeltaPlus1OnSet(api *engine.API, members []int, A int,
	sink Sink, done func(int) engine.Step) engine.Step {
	ids := api.NeighborIDs()
	var parents []int
	for _, k := range members {
		if int(ids[k]) > api.ID() {
			parents = append(parents, k)
		}
	}
	return StartIteratedLinial(api, members, parents, A, sink, func(c int) engine.Step {
		return StartKWReduce(api, members, c, LinialFinalPalette(api.N(), A), A, sink, done)
	})
}

// StartCVForests is the step form of CVForests.
func StartCVForests(api *engine.API, numLabels int, parentIdx []int,
	sink Sink, done func([]int32) engine.Step) engine.Step {
	n := api.N()
	colors := make([]int32, numLabels+1) // 1-based labels
	for j := range colors {
		colors[j] = int32(api.ID())
	}
	parentColors := make([]int32, numLabels+1)
	send := func(api *engine.API) {
		api.Broadcast(cvForestMsg{Colors: append([]int32(nil), colors...)})
	}
	process := func(api *engine.API, inbox []engine.Msg) {
		var stray []engine.Msg
		for _, m := range inbox {
			cm, ok := m.Data.(cvForestMsg)
			if !ok {
				stray = append(stray, m)
				continue
			}
			k := api.NeighborIndex(m.From)
			for j := 1; j <= numLabels; j++ {
				if parentIdx[j] == k && j < len(cm.Colors) {
					parentColors[j] = cm.Colors[j]
				}
			}
		}
		if len(stray) > 0 {
			sink(stray)
		}
	}
	steps := CVSteps(n)
	s := 0
	removed := []int32{5, 4, 3}
	ri := 0
	preShift := make([]int32, numLabels+1)
	var reduce, shiftA, shiftB engine.StepFn
	reduce = func(api *engine.API, inbox []engine.Msg) engine.Step {
		process(api, inbox)
		for j := 1; j <= numLabels; j++ {
			cp := parentColors[j]
			if parentIdx[j] < 0 {
				cp = colors[j] ^ 1
			}
			colors[j] = cvStep(colors[j], cp)
		}
		s++
		send(api)
		if s < steps {
			return engine.Continue(reduce)
		}
		return engine.Continue(shiftA)
	}
	shiftA = func(api *engine.API, inbox []engine.Msg) engine.Step {
		process(api, inbox)
		for j := 1; j <= numLabels; j++ {
			preShift[j] = colors[j]
			if parentIdx[j] < 0 {
				// Root: pick a color in {0,1,2} different from its own.
				colors[j] = (colors[j] + 1) % 3
			} else {
				colors[j] = parentColors[j]
			}
		}
		send(api)
		return engine.Continue(shiftB)
	}
	shiftB = func(api *engine.API, inbox []engine.Msg) engine.Step {
		process(api, inbox)
		for j := 1; j <= numLabels; j++ {
			if colors[j] != removed[ri] {
				continue
			}
			forbidden := [2]int32{preShift[j], -1}
			if parentIdx[j] >= 0 {
				forbidden[1] = parentColors[j]
			}
			for c := int32(0); c < 3; c++ {
				if c != forbidden[0] && c != forbidden[1] {
					colors[j] = c
					break
				}
			}
		}
		ri++
		if ri == len(removed) {
			return done(colors[:numLabels+1])
		}
		send(api)
		return engine.Continue(shiftA)
	}
	send(api)
	if steps > 0 {
		return engine.Continue(reduce)
	}
	return engine.Continue(shiftA)
}

// ArbLinialO1Step is the step form of ArbLinialO1.
func ArbLinialO1Step(a int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			d := forest.NewDecomp(api, a, eps)
			return d.Start(api, func() engine.Step {
				ids := api.NeighborIDs()
				parents := make([]int, len(d.OutIdx))
				for j, k := range d.OutIdx {
					parents[j] = int(ids[k])
				}
				return engine.Done(LinialStep(api.N(), d.Tr.A, api.ID(), parents))
			})
		}
	}
}

// TwoPhaseA2Step is the step form of TwoPhaseA2.
func TwoPhaseA2Step(a int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		n := api.N()
		tr := hpartition.NewTracker(api, a, eps)
		A := tr.A
		t, ell := phaseSplit(n, eps)
		P := LinialFinalPalette(n, A)
		sink := func(ms []engine.Msg) { tr.Absorb(api, ms) }

		phase := 1
		segLo, segHi := int32(0), int32(t)
		waitEnd := t

		settle := func(api *engine.API, inbox []engine.Msg) engine.Step {
			tr.Absorb(api, inbox)
			members, parents := SegmentParents(api, tr, segLo, segHi)
			return StartIteratedLinial(api, members, parents, A, sink, func(c int) engine.Step {
				return engine.Done(c + (phase-1)*P)
			})
		}
		// The blocking form idles to the segment boundary and settles one
		// round later; a single sleep accumulates the same absorbs.
		joined := func(api *engine.API) engine.Step {
			k := waitEnd + 1 - api.Round()
			if k < 1 {
				k = 1
			}
			return engine.Sleep(k, settle)
		}
		var phase2 engine.StepFn
		phase2 = func(api *engine.API, inbox []engine.Msg) engine.Step {
			tr.Absorb(api, inbox)
			if tr.HIndex != 0 {
				return joined(api)
			}
			tr.Advance(api)
			return engine.Continue(phase2)
		}
		var phase1 engine.StepFn
		phase1 = func(api *engine.API, inbox []engine.Msg) engine.Step {
			tr.Absorb(api, inbox)
			if tr.HIndex != 0 {
				return joined(api)
			}
			if int32(api.Round()) < int32(t) {
				tr.Advance(api)
				return engine.Continue(phase1)
			}
			phase = 2
			segLo, segHi = int32(t), int32(ell)
			waitEnd = ell
			tr.Advance(api)
			return engine.Continue(phase2)
		}
		return phase1
	}
}

// AColorLogLogStep is the step form of AColorLogLog.
func AColorLogLogStep(a int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		n := api.N()
		sch := NewAColorSchedule(n, a, eps)
		tr := hpartition.NewTracker(api, a, eps)
		sink := func(ms []engine.Msg) { tr.Absorb(api, ms) }

		var i int32
		var c int
		var members []int
		setColor := map[int]int{} // neighbor index -> its set color

		greedy := func(api *engine.API) engine.Step {
			segLo, segHi, base := int32(0), int32(sch.T), 0
			if int(i) > sch.T {
				segLo, segHi, base = int32(sch.T), int32(sch.Ell), sch.A+1
			}
			parentFinal := map[int]int{} // neighbor index -> final color
			var parents []int
			for k, h := range tr.NbrH {
				if h <= segLo || h > segHi {
					continue
				}
				if h > i || (h == i && setColor[k] > c) {
					parents = append(parents, k)
				}
			}
			var wait engine.StepFn
			var check func(api *engine.API) engine.Step
			check = func(api *engine.API) engine.Step {
				ready := true
				for _, k := range parents {
					if _, ok := parentFinal[k]; !ok {
						ready = false
						break
					}
				}
				if ready {
					used := map[int]bool{}
					for _, k := range parents {
						used[parentFinal[k]] = true
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
					f, ok := m.Data.(engine.Final)
					if !ok {
						continue
					}
					if col, ok := f.Output.(int); ok {
						parentFinal[api.NeighborIndex(m.From)] = col
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
			ms := newMemberSet(api, members)
			var stray []engine.Msg
			for _, m := range inbox {
				if mc, ok := AsChosen(m, dp1Kind); ok && ms.idx[m.From] {
					setColor[api.NeighborIndex(m.From)] = int(mc)
					continue
				}
				stray = append(stray, m)
			}
			sink(stray)
			start := sch.S1
			if int(i) > sch.T {
				start = sch.S2
			}
			if api.Round() < start {
				return engine.Sleep(start-api.Round(), wake)
			}
			return greedy(api)
		}
		settle := func(api *engine.API, inbox []engine.Msg) engine.Step {
			tr.Absorb(api, inbox)
			i = tr.HIndex
			for k, h := range tr.NbrH {
				if h == i {
					members = append(members, k)
				}
			}
			return StartDeltaPlus1OnSet(api, members, sch.A, sink, func(col int) engine.Step {
				c = col
				// Exchange the Delta+1 colors within the set to orient by color.
				BroadcastChosen(api, dp1Kind, int32(c))
				return engine.Continue(exch)
			})
		}
		js1 := func(api *engine.API, inbox []engine.Msg) engine.Step {
			tr.Absorb(api, inbox)
			return engine.Continue(settle)
		}
		var window, tail engine.StepFn
		window = func(api *engine.API, inbox []engine.Msg) engine.Step {
			tr.Absorb(api, inbox)
			if tr.Advance(api) {
				return engine.Continue(js1)
			}
			return engine.Continue(tail)
		}
		tail = func(api *engine.API, inbox []engine.Msg) engine.Step {
			tr.Absorb(api, inbox)
			return engine.Sleep(sch.W-1, window)
		}
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			if tr.Advance(api) {
				return engine.Continue(js1)
			}
			return engine.Continue(tail)
		}
	}
}
