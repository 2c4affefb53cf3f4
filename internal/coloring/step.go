package coloring

import (
	"slices"

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
//
// The shared sub-machines are value types — Linial, KW and DeltaPlus1 —
// that a composed algorithm embeds in its per-vertex struct and drives
// from its own turn, with no closure or escaped variable per vertex.
// Start does the work the blocking form does before its first receive,
// and Turn handles one round's inbox and the work up to the next receive;
// each reports done in the turn the blocking form returns in, after which
// Color is the result. StartIteratedLinial and StartDeltaPlus1OnSet are
// thin adaptors over the same machines for closure-built compositions.

// Strays receives the messages a value machine's turn does not itself
// understand (Join announcements, terminations, foreign traffic), one at
// a time and in inbox order: the per-message form of Sink, implemented by
// the caller's per-vertex struct.
type Strays interface {
	Stray(api *engine.API, m engine.Msg)
}

// Linial is the value-machine form of IteratedLinial.
type Linial struct {
	sched        []int
	parentIdx    []int
	parentColors []int
	a, c, step   int
}

// Start begins Procedure Arb-Linial-Coloring in the caller's turn, with
// parentIdx the neighbor indices of this vertex's at most A parents. The
// machine keeps parentIdx, which the caller must not modify.
//
//vavg:stepform
func (l *Linial) Start(api *engine.API, parentIdx []int, A int) (done bool) {
	*l = Linial{
		sched:        LinialSchedule(api.N(), A),
		parentIdx:    parentIdx,
		parentColors: make([]int, len(parentIdx)),
		a:            A,
		c:            api.ID(),
	}
	ids := api.NeighborIDs()
	for j, k := range parentIdx {
		l.parentColors[j] = int(ids[k])
	}
	if len(l.sched) < 2 {
		return true
	}
	return l.advance(api)
}

// Turn records the parents' colors of the current step and takes the
// next reduction step.
//
//vavg:stepform
func (l *Linial) Turn(api *engine.API, inbox []engine.Msg, s Strays) (done bool) {
	ids := api.NeighborIDs()
	for _, m := range inbox {
		step, c, ok := asColor(m)
		if !ok {
			s.Stray(api, m)
			continue
		}
		if step != l.step {
			continue
		}
		for j, k := range l.parentIdx {
			if ids[k] == m.From {
				l.parentColors[j] = c
				break
			}
		}
	}
	return l.advance(api)
}

// advance takes one reduction step and broadcasts the new color, unless
// the step was the last.
func (l *Linial) advance(api *engine.API) (done bool) {
	l.step++
	l.c = LinialStep(l.sched[l.step-1], l.a, l.c, l.parentColors)
	if l.step == len(l.sched)-1 {
		return true // no one needs my color for a further step
	}
	broadcastColor(api, l.step, l.c)
	return false
}

// Color returns the vertex's color; the final one once the machine is done.
func (l *Linial) Color() int { return l.c }

// KW is the value-machine form of KWReduce.
type KW struct {
	phases  []int
	members []int
	// taken lists the colors from base up that members announced this
	// phase, which the choice must avoid. In lockstep each member
	// announces once per phase, within the initial capacity; a member
	// rebooted out of step by a crash can announce in several rounds.
	taken               []int32
	a, c                int
	pi, r               int
	class, base, chosen int
}

// Start begins Kuhn-Wattenhofer reduction in the caller's turn: myColor
// is this vertex's color in a proper m-coloring of the member set
// (neighbor indices, at most A of them). The machine keeps members, which
// the caller must not modify.
//
//vavg:stepform
func (k *KW) Start(api *engine.API, members []int, myColor, m, A int) (done bool) {
	*k = KW{phases: kwPhases(m, A), members: members, a: A, c: myColor}
	if len(k.phases) == 0 {
		return true
	}
	k.taken = make([]int32, 0, len(members))
	k.startPhase(api)
	return false
}

// Turn records one round's member announcements, then takes the next
// class round or starts the next phase.
//
//vavg:stepform
func (k *KW) Turn(api *engine.API, inbox []engine.Msg, s Strays) (done bool) {
	ids := api.NeighborIDs()
	for _, m := range inbox {
		c, ok := AsChosen(m, kwKind)
		if !ok || !k.isMember(ids, m.From) {
			s.Stray(api, m)
			continue
		}
		// Colors below base cannot change the first free color.
		if int(c) >= k.base {
			k.taken = append(k.taken, c)
		}
	}
	k.r++
	if k.r < 2*(k.a+1) {
		k.send(api)
		return false
	}
	if k.chosen < 0 {
		panic("coloring: KW vertex never scheduled (improper input coloring?)")
	}
	k.c = k.chosen
	k.pi++
	if k.pi == len(k.phases) {
		return true
	}
	k.startPhase(api)
	return false
}

func (k *KW) startPhase(api *engine.API) {
	groupSize := 2 * (k.a + 1)
	k.class = k.c % groupSize
	k.base = (k.c / groupSize) * (k.a + 1)
	k.taken = k.taken[:0]
	k.chosen = -1
	k.r = 0
	k.send(api)
}

// send picks and announces the first free color in this vertex's class
// round.
func (k *KW) send(api *engine.API) {
	if k.r != k.class {
		return
	}
	c := int32(k.base)
	for slices.Contains(k.taken, c) {
		c++
	}
	k.chosen = int(c)
	BroadcastChosen(api, kwKind, c)
}

// isMember reports whether the sender is in the member set; both sides are
// original IDs on a relabeled view.
func (k *KW) isMember(ids []int32, from int32) bool {
	for _, kk := range k.members {
		if ids[kk] == from {
			return true
		}
	}
	return false
}

// Color returns the vertex's color; the final one once the machine is done.
func (k *KW) Color() int { return k.c }

// DeltaPlus1 is the value-machine form of DeltaPlus1OnSet: a Linial run
// oriented by descending ID, then a KW run.
type DeltaPlus1 struct {
	lin     Linial
	kw      KW
	members []int
	inKW    bool
}

// Start begins the (A+1)-coloring of the member set (neighbor indices)
// in the caller's turn. The machine keeps members, which the caller must
// not modify.
//
//vavg:stepform
func (d *DeltaPlus1) Start(api *engine.API, members []int, A int) (done bool) {
	ids := api.NeighborIDs()
	parents := slices.DeleteFunc(slices.Clone(members), func(k int) bool {
		return int(ids[k]) <= api.ID()
	})
	d.members, d.inKW = members, false
	if d.lin.Start(api, parents, A) {
		return d.startKW(api)
	}
	return false
}

// Turn advances the running stage by one round.
//
//vavg:stepform
func (d *DeltaPlus1) Turn(api *engine.API, inbox []engine.Msg, s Strays) (done bool) {
	if d.inKW {
		return d.kw.Turn(api, inbox, s)
	}
	if d.lin.Turn(api, inbox, s) {
		return d.startKW(api)
	}
	return false
}

func (d *DeltaPlus1) startKW(api *engine.API) (done bool) {
	d.inKW = true
	A := d.lin.a
	return d.kw.Start(api, d.members, d.lin.Color(), LinialFinalPalette(api.N(), A), A)
}

// Color returns the vertex's color; the final one, in [0, A+1), once the
// machine is done.
func (d *DeltaPlus1) Color() int { return d.kw.Color() }

// colorMachine is what the Start* adaptors drive of a value machine.
type colorMachine interface {
	Turn(api *engine.API, inbox []engine.Msg, s Strays) (done bool)
	Color() int
}

// machineStep runs a value machine as a StepFn chain for the Start*
// adaptors: it batches each turn's strays into one Sink call, as the
// blocking forms do, and hands the final color to done.
type machineStep struct {
	m     colorMachine
	sink  Sink
	stray []engine.Msg
	done  func(int) engine.Step
	fn    engine.StepFn
}

// startMachine continues a machine whose Start just reported finished:
// done runs at once if it did, otherwise in the turn the machine ends in.
func startMachine(m colorMachine, finished bool, sink Sink, done func(int) engine.Step) engine.Step {
	if finished {
		return done(m.Color())
	}
	s := &machineStep{m: m, sink: sink, done: done}
	s.fn = s.turn
	return engine.Continue(s.fn)
}

// Stray implements Strays.
func (s *machineStep) Stray(_ *engine.API, m engine.Msg) { s.stray = append(s.stray, m) }

func (s *machineStep) turn(api *engine.API, inbox []engine.Msg) engine.Step {
	done := s.m.Turn(api, inbox, s)
	if len(s.stray) > 0 {
		s.sink(s.stray)
		s.stray = s.stray[:0]
	}
	if done {
		return s.done(s.m.Color())
	}
	return engine.Continue(s.fn)
}

// StartIteratedLinial is the step form of IteratedLinial, an adaptor over
// Linial. members is accepted for signature parity with the blocking form
// (it is implied by parentIdx there too).
func StartIteratedLinial(api *engine.API, members, parentIdx []int, A int,
	sink Sink, done func(int) engine.Step) engine.Step {
	_ = members
	l := new(Linial)
	return startMachine(l, l.Start(api, parentIdx, A), sink, done)
}

// StartDeltaPlus1OnSet is the step form of DeltaPlus1OnSet, an adaptor
// over DeltaPlus1.
func StartDeltaPlus1OnSet(api *engine.API, members []int, A int,
	sink Sink, done func(int) engine.Step) engine.Step {
	d := new(DeltaPlus1)
	return startMachine(d, d.Start(api, members, A), sink, done)
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
