package coloring

import (
	"math"
	"slices"

	"vavg/internal/engine"
	"vavg/internal/forest"
	"vavg/internal/hpartition"
)

// Step (state-machine) forms of the coloring subroutines and algorithms.
// Each reproduces its blocking form round for round, so the two forms are
// byte-identical.
//
// The sub-machines are value types — Linial, KW, DeltaPlus1, Wave and
// CV — that a composed algorithm embeds in its per-vertex struct and
// drives from its own turn, with no closure or escaped variable per
// vertex. Start does the work the blocking form does before its first
// receive, and Turn handles the inbox delivered since the machine's
// previous turn and the work up to the next receive that matters; each
// reports done in the turn the blocking form returns in, after which
// Color (CV: Colors) is the result. Linial, Wave and CV take a turn every
// round. KW and DeltaPlus1, like forest.Decomp, also return the rounds
// until their next turn, which the caller passes to engine.Sleep: a KW
// vertex only listens in most rounds of a phase, and it sleeps through
// them, reading their messages in one inbox. A vertex is one struct whose
// turn method, bound once at construction, dispatches on a phase field.

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

// KW is the value-machine form of KWReduce. A vertex takes two turns per
// phase: the phase-boundary turn, which ends the previous phase and starts
// this one, and its own class turn, which picks and announces its color.
// It sleeps through the phase's other rounds, in which it only listens:
// what it does with their messages does not depend on which turn reads
// them. The boundary turn stays even when the class turns of two phases
// could be joined by one sleep, because a message carries no round: the
// previous phase's late announcements must not reach the next phase's
// taken list.
type KW struct {
	phases  []int
	members []int
	// taken lists the colors from base up that members announced this
	// phase, which the choice must avoid. In lockstep each member
	// announces once per phase, within the initial capacity; a member
	// rebooted out of step by a crash can announce in several rounds.
	taken []int32
	a, c  int
	pi    int
	// r is the phase round of the next turn: the class round, or 2(A+1)
	// for the boundary with the next phase.
	r           int
	class, base int
}

// Start begins Kuhn-Wattenhofer reduction in the caller's turn: myColor
// is this vertex's color in a proper m-coloring of the member set
// (neighbor indices, at most A of them). The machine keeps members, which
// the caller must not modify. Start and Turn return the rounds until the
// next turn, or done in the turn KWReduce returns in.
//
//vavg:stepform
func (k *KW) Start(api *engine.API, members []int, myColor, m, A int) (wait int, done bool) {
	*k = KW{phases: kwPhases(m, A), members: members, a: A, c: myColor}
	if len(k.phases) == 0 {
		return 0, true
	}
	k.taken = make([]int32, 0, len(members))
	return k.startPhase(api), false
}

// Turn records the member announcements delivered since the previous
// turn, then takes the class round or starts the next phase.
//
//vavg:stepform
func (k *KW) Turn(api *engine.API, inbox []engine.Msg, s Strays) (wait int, done bool) {
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
	if k.r == k.class {
		return k.choose(api), false
	}
	k.pi++
	if k.pi == len(k.phases) {
		return 0, true
	}
	return k.startPhase(api), false
}

// startPhase starts a phase in its round 0 and returns the rounds until
// the class round.
func (k *KW) startPhase(api *engine.API) (wait int) {
	groupSize := 2 * (k.a + 1)
	k.class = k.c % groupSize
	k.base = (k.c / groupSize) * (k.a + 1)
	k.taken = k.taken[:0]
	if k.class == 0 {
		return k.choose(api)
	}
	k.r = k.class
	return k.class
}

// choose picks and announces the first free color in the vertex's class
// round, and returns the rounds until the phase boundary.
func (k *KW) choose(api *engine.API) (wait int) {
	c := int32(k.base)
	for slices.Contains(k.taken, c) {
		c++
	}
	k.c = int(c)
	BroadcastChosen(api, kwKind, c)
	k.r = 2 * (k.a + 1)
	return k.r - k.class
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
// not modify. Start and Turn return the rounds until the next turn: one
// while Linial runs, KW's waits after. They report done in the turn
// DeltaPlus1OnSet returns in.
//
//vavg:stepform
func (d *DeltaPlus1) Start(api *engine.API, members []int, A int) (wait int, done bool) {
	ids := api.NeighborIDs()
	parents := slices.DeleteFunc(slices.Clone(members), func(k int) bool {
		return int(ids[k]) <= api.ID()
	})
	d.members, d.inKW = members, false
	if d.lin.Start(api, parents, A) {
		return d.startKW(api)
	}
	return 1, false
}

// Turn advances the running stage.
//
//vavg:stepform
func (d *DeltaPlus1) Turn(api *engine.API, inbox []engine.Msg, s Strays) (wait int, done bool) {
	if d.inKW {
		return d.kw.Turn(api, inbox, s)
	}
	if d.lin.Turn(api, inbox, s) {
		return d.startKW(api)
	}
	return 1, false
}

func (d *DeltaPlus1) startKW(api *engine.API) (wait int, done bool) {
	d.inKW = true
	A := d.lin.a
	return d.kw.Start(api, d.members, d.lin.Color(), LinialFinalPalette(api.N(), A), A)
}

// Color returns the vertex's color; the final one, in [0, A+1), once the
// machine is done.
func (d *DeltaPlus1) Color() int { return d.kw.Color() }

// cvRemoved lists the classes CVForests' shift-down rounds remove, in
// order.
var cvRemoved = [...]int32{5, 4, 3}

// CV is the value-machine form of CVForests.
type CV struct {
	parentIdx []int
	// colors, parentColors and preShift are indexed by forest label.
	colors, parentColors, preShift []int32
	steps, r                       int // bit-reduction steps, and exchanges heard
}

// Start begins the Cole-Vishkin colorings of numLabels forests in the
// caller's turn and broadcasts the initial colors; parentIdx[j] is the
// neighbor index of this vertex's parent in forest j, or -1. The machine
// keeps parentIdx, which the caller must not modify.
//
//vavg:stepform
func (cv *CV) Start(api *engine.API, numLabels int, parentIdx []int) {
	l := numLabels + 1 // 1-based labels
	buf := make([]int32, 3*l)
	*cv = CV{
		parentIdx:    parentIdx,
		colors:       buf[:l:l],
		parentColors: buf[l : 2*l : 2*l],
		preShift:     buf[2*l:],
		steps:        CVSteps(api.N()),
	}
	for j := range cv.colors {
		cv.colors[j] = int32(api.ID())
	}
	cv.send(api)
}

// Turn records the parents' colors of one exchange, then takes the next
// bit-reduction, shift-down or class-removal step.
//
//vavg:stepform
func (cv *CV) Turn(api *engine.API, inbox []engine.Msg, s Strays) (done bool) {
	for _, m := range inbox {
		cm, ok := m.Data.(cvForestMsg)
		if !ok {
			s.Stray(api, m)
			continue
		}
		k := api.NeighborIndex(m.From)
		for j := 1; j < len(cv.colors); j++ {
			if cv.parentIdx[j] == k && j < len(cm.Colors) {
				cv.parentColors[j] = cm.Colors[j]
			}
		}
	}
	cv.r++
	switch shift := cv.r - cv.steps; {
	case shift <= 0:
		for j := 1; j < len(cv.colors); j++ {
			cp := cv.parentColors[j]
			if cv.parentIdx[j] < 0 {
				cp = cv.colors[j] ^ 1
			}
			cv.colors[j] = cvStep(cv.colors[j], cp)
		}
	case shift%2 == 1:
		for j := 1; j < len(cv.colors); j++ {
			cv.preShift[j] = cv.colors[j]
			if cv.parentIdx[j] < 0 {
				// Root: pick a color in {0,1,2} different from its own.
				cv.colors[j] = (cv.colors[j] + 1) % 3
			} else {
				cv.colors[j] = cv.parentColors[j]
			}
		}
	default:
		removed := cvRemoved[shift/2-1]
		for j := 1; j < len(cv.colors); j++ {
			if cv.colors[j] != removed {
				continue
			}
			forbidden := [2]int32{cv.preShift[j], -1}
			if cv.parentIdx[j] >= 0 {
				forbidden[1] = cv.parentColors[j]
			}
			for c := int32(0); c < 3; c++ {
				if c != forbidden[0] && c != forbidden[1] {
					cv.colors[j] = c
					break
				}
			}
		}
		if shift == 2*len(cvRemoved) {
			return true
		}
	}
	cv.send(api)
	return false
}

// send broadcasts a copy of the current colors.
func (cv *CV) send(api *engine.API) {
	api.Broadcast(cvForestMsg{Colors: slices.Clone(cv.colors)})
}

// Colors returns the vertex's color in each forest by 1-based label; in
// {0,1,2} once the machine is done. The caller must not modify it.
func (cv *CV) Colors() []int32 { return cv.colors }

// noFinal marks a Wave parent whose final color has not arrived.
const noFinal = math.MinInt

// Wave is the value-machine form of RecolorWave.
type Wave struct {
	parents []int
	// finals[j] is parent j's final color, or noFinal until it arrives.
	finals           []int
	base, missing, c int
}

// Start begins the wave: this vertex will take the first color from base
// up that none of parents (neighbor indices) took, and reports done at
// once if it has no parents. The machine keeps parents, which the caller
// must not modify.
//
//vavg:stepform
func (w *Wave) Start(parents []int, base int) (done bool) {
	*w = Wave{parents: parents, finals: make([]int, len(parents)), base: base, missing: len(parents)}
	for j := range w.finals {
		w.finals[j] = noFinal
	}
	return w.choose()
}

// Turn records the parents' final colors and chooses once all are known.
//
//vavg:stepform
func (w *Wave) Turn(api *engine.API, inbox []engine.Msg) (done bool) {
	ids := api.NeighborIDs()
	for _, m := range inbox {
		f, ok := m.Data.(engine.Final)
		if !ok {
			continue
		}
		c, ok := f.Output.(int)
		if !ok {
			continue
		}
		for j, k := range w.parents {
			if ids[k] == m.From {
				if w.finals[j] == noFinal {
					w.missing--
				}
				w.finals[j] = c
				break
			}
		}
	}
	return w.choose()
}

// choose takes the first color from base up that no parent took, once
// every parent's final color is known.
func (w *Wave) choose() (done bool) {
	if w.missing > 0 {
		return false
	}
	w.c = w.base
	for slices.Contains(w.finals, w.c) {
		w.c++
	}
	return true
}

// Color returns the vertex's color once the machine is done.
func (w *Wave) Color() int { return w.c }

// SetColorParents returns the neighbor indices that are this vertex's
// parents under the orientation of Sections 7.4, 7.7 and 7.8: toward a
// neighbor in a later H-set of the segment (lo, hi], or in its own set
// with a set color above c (setColor is by neighbor index).
func SetColorParents(tr *hpartition.Tracker, lo, hi int32, setColor []int32, c int) []int {
	var parents []int
	for k, h := range tr.NbrH {
		if h > lo && h <= hi && (h > tr.HIndex || h == tr.HIndex && int(setColor[k]) > c) {
			parents = append(parents, k)
		}
	}
	return parents
}

// arbLinialO1Vertex is one vertex of ArbLinialO1Step.
type arbLinialO1Vertex struct {
	d  forest.Decomp
	fn engine.StepFn // v.turn, bound once
}

// ArbLinialO1Step is the step form of ArbLinialO1.
func ArbLinialO1Step(a int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		v := new(arbLinialO1Vertex)
		v.d.Tr.Init(api, a, eps)
		v.fn = v.turn
		return v.fn
	}
}

func (v *arbLinialO1Vertex) turn(api *engine.API, inbox []engine.Msg) engine.Step {
	if wait, done := v.d.Turn(api, inbox, 0); !done {
		return engine.Sleep(wait, v.fn)
	}
	return engine.Done(LinialFromIDs(api, &v.d))
}

// a2Vertex is one vertex of TwoPhaseA2Step: its partition tracker and its
// segment's Arb-Linial run, driven by one StepFn that dispatches on phase.
type a2Vertex struct {
	tr     hpartition.Tracker
	lin    Linial
	t, ell int // phase-1 partition rounds, and the partition bound
	p      int // per-phase palette: phase 2 colors with [p, 2p)
	phase2 bool
	phase  a2Phase
	fn     engine.StepFn // v.turn, bound once
}

type a2Phase uint8

const (
	a2Part   a2Phase = iota // partition rounds until the vertex joins
	a2Settle                // settle round once the segment formed
	a2Color                 // Arb-Linial on the segment
)

// TwoPhaseA2Step is the step form of TwoPhaseA2.
func TwoPhaseA2Step(a int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		v := new(a2Vertex)
		v.tr.Init(api, a, eps)
		v.t, v.ell = phaseSplit(api.N(), eps)
		v.p = LinialFinalPalette(api.N(), v.tr.A)
		v.fn = v.turn
		return v.fn
	}
}

func (v *a2Vertex) turn(api *engine.API, inbox []engine.Msg) engine.Step {
	if v.phase == a2Color {
		if v.lin.Turn(api, inbox, v) {
			return v.done()
		}
		return engine.Continue(v.fn)
	}
	v.tr.Absorb(api, inbox)
	lo, hi := v.segment()
	switch {
	case v.phase == a2Settle:
		v.phase = a2Color
		if v.lin.Start(api, SegmentParents(api, &v.tr, lo, hi), v.tr.A) {
			return v.done()
		}
		return engine.Continue(v.fn)
	case v.tr.HIndex != 0:
		// The blocking form idles to the segment boundary and settles one
		// round later; a single sleep accumulates the same absorbs.
		v.phase = a2Settle
		return engine.Sleep(max(1, int(hi)+1-api.Round()), v.fn)
	}
	if api.Round() >= v.t {
		v.phase2 = true
	}
	v.tr.Advance(api)
	return engine.Continue(v.fn)
}

// segment returns the H-index range of the vertex's phase segment.
func (v *a2Vertex) segment() (lo, hi int32) {
	if v.phase2 {
		return int32(v.t), int32(v.ell)
	}
	return 0, int32(v.t)
}

// done terminates with the Arb-Linial color in the phase's palette block.
func (v *a2Vertex) done() engine.Step {
	c := v.lin.Color()
	if v.phase2 {
		c += v.p
	}
	return engine.Done(c)
}

// Stray absorbs a message the Linial machine does not understand.
func (v *a2Vertex) Stray(api *engine.API, m engine.Msg) {
	v.tr.Absorb(api, []engine.Msg{m})
}

// aColorVertex is one vertex of AColorLogLogStep: its partition tracker,
// its H-set's (A+1)-coloring and its segment's recolor wave, driven by one
// StepFn that dispatches on phase.
type aColorVertex struct {
	sch      AColorSchedule
	tr       hpartition.Tracker
	dp1      DeltaPlus1
	wave     Wave
	members  []int   // same-set neighbor indices
	setColor []int32 // set colors by neighbor index, 0 if unheard
	phase    aColorPhase
	fn       engine.StepFn // v.turn, bound once
}

type aColorPhase uint8

const (
	acWindow   aColorPhase = iota // partition advance at the top of a window
	acTail                        // sleep through the window's remainder
	acJoined                      // the join round's tail
	acSettle                      // settle round: start the H-set's coloring
	acColor                       // (A+1)-coloring of the H-set
	acExchange                    // set colors arrive; wait for the wave
	acWake                        // first round of the segment's wave
	acWave                        // recolor wave
)

// AColorLogLogStep is the step form of AColorLogLog.
func AColorLogLogStep(a int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		v := &aColorVertex{sch: NewAColorSchedule(api.N(), a, eps)}
		v.tr.Init(api, a, eps)
		v.fn = v.turn
		return v.fn
	}
}

func (v *aColorVertex) turn(api *engine.API, inbox []engine.Msg) engine.Step {
	switch v.phase {
	case acColor:
		if wait, done := v.dp1.Turn(api, inbox, v); !done {
			return engine.Sleep(wait, v.fn)
		}
		return v.exchange(api)
	case acExchange:
		return v.setColors(api, inbox)
	case acWave:
		return v.recolor(v.wave.Turn(api, inbox))
	}
	v.tr.Absorb(api, inbox)
	switch v.phase {
	case acWindow:
		v.phase = acTail
		if v.tr.Advance(api) {
			v.phase = acJoined
		}
		return engine.Continue(v.fn)
	case acTail:
		v.phase = acWindow
		return engine.Sleep(v.sch.W-1, v.fn)
	case acJoined:
		v.phase = acSettle
		return engine.Continue(v.fn)
	case acSettle:
		v.members = SetMembers(&v.tr)
		v.phase = acColor
		if wait, done := v.dp1.Start(api, v.members, v.sch.A); !done {
			return engine.Sleep(wait, v.fn)
		}
		return v.exchange(api)
	}
	return v.startWave(api)
}

// exchange announces the set color within the H-set, to orient by color.
func (v *aColorVertex) exchange(api *engine.API) engine.Step {
	BroadcastChosen(api, dp1Kind, int32(v.dp1.Color()))
	v.phase = acExchange
	return engine.Continue(v.fn)
}

// setColors records the members' set colors, then sleeps to the round the
// segment's recolor wave starts in.
func (v *aColorVertex) setColors(api *engine.API, inbox []engine.Msg) engine.Step {
	v.setColor = make([]int32, api.Degree())
	for _, m := range inbox {
		if mc, ok := AsChosen(m, dp1Kind); ok {
			if k := api.NeighborIndex(m.From); slices.Contains(v.members, k) {
				v.setColor[k] = mc
				continue
			}
		}
		v.Stray(api, m)
	}
	start := v.sch.S1
	if int(v.tr.HIndex) > v.sch.T {
		start = v.sch.S2
	}
	if api.Round() < start {
		v.phase = acWake
		return engine.Sleep(start-api.Round(), v.fn)
	}
	return v.startWave(api)
}

// startWave recolors the segment from its palette block: phase 1 from 0,
// phase 2 from A+1.
func (v *aColorVertex) startWave(api *engine.API) engine.Step {
	lo, hi, base := int32(0), int32(v.sch.T), 0
	if int(v.tr.HIndex) > v.sch.T {
		lo, hi, base = int32(v.sch.T), int32(v.sch.Ell), v.sch.A+1
	}
	v.phase = acWave
	return v.recolor(v.wave.Start(SetColorParents(&v.tr, lo, hi, v.setColor, v.dp1.Color()), base))
}

// recolor terminates with the wave's color once it is done.
func (v *aColorVertex) recolor(done bool) engine.Step {
	if done {
		return engine.Done(v.wave.Color())
	}
	return engine.Continue(v.fn)
}

// Stray absorbs a message the coloring machines do not understand.
func (v *aColorVertex) Stray(api *engine.API, m engine.Msg) {
	v.tr.Absorb(api, []engine.Msg{m})
}
