package segment

import (
	"vavg/internal/coloring"
	"vavg/internal/engine"
	"vavg/internal/hpartition"
)

// Step (state-machine) forms of the segmentation algorithms. Each turn
// reproduces one round of the blocking form; the idle stretches of the
// window geometry (window remainders, foreign C-blocks, waits for the own
// segment's C-block) become merged sleeps whose wake turn absorbs exactly
// the messages the blocking form absorbs round by round, so the two forms
// are byte-identical.

// windowWalk is the step form of runPartitionWindows as a value machine:
// one partition advance in the first round of each window, sleeping
// through window remainders and foreign C-blocks. Its zero value
// stands at the top of the first window: the walk's first Turn, with an
// empty inbox, takes the first partition advance.
type windowWalk struct {
	s, m int32 // segment, and window within it, of the next advance
	at   walkAt
}

// walkAt is what a windowWalk's next turn does.
type walkAt uint8

const (
	walkWindow walkAt = iota // partition advance at the top of a window
	walkTail                 // sleep through the window's remainder
	walkJoined               // absorb the join round's tail, then done
)

// Turn absorbs inbox into tr and takes the walk's next step. It returns
// the rounds until the walk's next turn, or done in the turn after the
// join round — the turn runPartitionWindows returns in.
//
//vavg:stepform
func (w *windowWalk) Turn(api *engine.API, inbox []engine.Msg, p *Plan, tr *hpartition.Tracker) (wait int, done bool) {
	tr.Absorb(api, inbox)
	switch w.at {
	case walkJoined:
		return 0, true
	case walkTail:
		wait = p.W - 1
		w.m++
		if int(w.m) == p.SegLen[w.s] {
			// C-block of segment s: this vertex is still active, so it
			// sleeps through it along with the window remainder.
			wait += p.CWidth[w.s]
			w.s++
			w.m = 0
		}
		w.at = walkWindow
		return wait, false
	}
	if int(w.s) >= len(p.SegLen) {
		panic("segment: vertex failed to join within the planned partition rounds")
	}
	w.at = walkTail
	if tr.Advance(api) {
		w.at = walkJoined
	}
	return 1, false
}

// ka2Vertex is one vertex of KA2Step: its partition tracker, window walk
// and segment Arb-Linial run, driven by one StepFn that dispatches on
// phase. Its fields run from pointer-aligned to byte-sized, which keeps it
// at 160 bytes (TestKA2VertexSize).
type ka2Vertex struct {
	plan        *Plan
	tr          hpartition.Tracker
	lin         coloring.Linial
	walk        windowWalk
	seg, lo, hi int32 // the segment, and its H-index range (lo, hi]
	phase       ka2Phase
}

type ka2Phase uint8

const (
	ka2Walk   ka2Phase = iota // partition windows, through the join round's tail
	ka2Settle                 // settle round: find the segment, wait for its C-block
	ka2Wake                   // first round of the segment's C-block
	ka2Color                  // Arb-Linial on the segment
)

// KA2Step is the step form of KA2Coloring.
func KA2Step(a, k int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		n := api.N()
		plan := NewPlan(n, a, k, eps, 2, 0, coloring.IteratedLinialRounds(n, hpartition.ParamA(a, eps)))
		v := engine.State[ka2Vertex](api)
		*v = ka2Vertex{plan: plan}
		v.tr.Init(api, a, eps)
		return ka2Turn
	}
}

// ka2Turn is every turn of a KA2Step vertex.
func ka2Turn(api *engine.API, inbox []engine.Msg) engine.Step {
	return engine.State[ka2Vertex](api).turn(api, inbox)
}

func (v *ka2Vertex) turn(api *engine.API, inbox []engine.Msg) engine.Step {
	switch v.phase {
	case ka2Walk:
		wait, done := v.walk.Turn(api, inbox, v.plan, &v.tr)
		if !done {
			return engine.Sleep(wait, ka2Turn)
		}
		v.phase = ka2Settle
		return engine.Continue(ka2Turn)
	case ka2Settle:
		v.tr.Absorb(api, inbox)
		seg, lo, hi := v.plan.SegmentOf(int(v.tr.HIndex))
		v.seg, v.lo, v.hi = int32(seg), lo, hi
		// Wait for the segment's C-block.
		if wait := v.plan.cStart[seg] - api.Round(); wait > 0 {
			v.phase = ka2Wake
			return engine.Sleep(wait, ka2Turn)
		}
		return v.color(api)
	case ka2Wake:
		v.tr.Absorb(api, inbox)
		return v.color(api)
	}
	if v.lin.Turn(api, inbox, v) {
		return v.done()
	}
	return engine.Continue(ka2Turn)
}

// color starts Arb-Linial on the segment.
func (v *ka2Vertex) color(api *engine.API) engine.Step {
	v.phase = ka2Color
	if v.lin.Start(api, coloring.SegmentParents(api, &v.tr, v.lo, v.hi), v.plan.A) {
		return v.done()
	}
	return engine.Continue(ka2Turn)
}

// done terminates with the Arb-Linial color in the segment's palette
// block: segment s colors with [s*p, (s+1)*p), p the final palette.
func (v *ka2Vertex) done() engine.Step {
	return engine.Done(v.lin.Color() + int(v.seg)*v.lin.FinalPalette())
}

// Stray absorbs a message the Linial machine does not understand.
func (v *ka2Vertex) Stray(api *engine.API, m engine.Msg) {
	v.tr.Absorb(api, []engine.Msg{m})
}

// kaVertex is one vertex of KAStep: its partition tracker, window walk,
// H-set (A+1)-coloring and segment recolor wave, driven by one StepFn that
// dispatches on phase.
type kaVertex struct {
	plan     *Plan
	tr       hpartition.Tracker
	walk     windowWalk
	dp1      coloring.DeltaPlus1
	wave     coloring.Wave
	setColor []int32 // set colors by neighbor index, 0 if unheard
	seg      int32
	lo, hi   int32
	phase    kaPhase
}

type kaPhase uint8

const (
	kaWalk     kaPhase = iota // partition windows, through the join round's tail
	kaSettle                  // settle round: start the H-set's coloring
	kaColor                   // (A+1)-coloring of the H-set
	kaExchange                // set colors arrive; wait for the C-block
	kaWake                    // first round of the segment's C-block
	kaWave                    // recolor wave
)

// KAStep is the step form of KAColoring.
func KAStep(a, k int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		n := api.N()
		A := hpartition.ParamA(a, eps)
		plan := NewPlan(n, a, k, eps, 3+coloring.DeltaPlus1Rounds(n, A), A+1, 2)
		v := engine.State[kaVertex](api)
		*v = kaVertex{plan: plan}
		v.tr.Init(api, a, eps)
		return kaTurn
	}
}

// kaTurn is every turn of a KAStep vertex.
func kaTurn(api *engine.API, inbox []engine.Msg) engine.Step {
	return engine.State[kaVertex](api).turn(api, inbox)
}

func (v *kaVertex) turn(api *engine.API, inbox []engine.Msg) engine.Step {
	switch v.phase {
	case kaWalk:
		wait, done := v.walk.Turn(api, inbox, v.plan, &v.tr)
		if !done {
			return engine.Sleep(wait, kaTurn)
		}
		v.phase = kaSettle
		return engine.Continue(kaTurn)
	case kaSettle:
		v.tr.Absorb(api, inbox)
		seg, lo, hi := v.plan.SegmentOf(int(v.tr.HIndex))
		v.seg, v.lo, v.hi = int32(seg), lo, hi
		v.phase = kaColor
		if wait, done := v.dp1.Start(api, coloring.SetMembers(&v.tr), v.plan.A); !done {
			return engine.Sleep(wait, kaTurn)
		}
		return v.exchange(api)
	case kaColor:
		if wait, done := v.dp1.Turn(api, inbox, v); !done {
			return engine.Sleep(wait, kaTurn)
		}
		return v.exchange(api)
	case kaExchange:
		return v.setColors(api, inbox)
	case kaWake:
		v.tr.Absorb(api, inbox)
		return v.startWave(api)
	}
	return v.recolor(v.wave.Turn(api, inbox))
}

// exchange announces the set color within the H-set, to orient by color.
func (v *kaVertex) exchange(api *engine.API) engine.Step {
	coloring.BroadcastChosen(api, segKind, int32(v.dp1.Color()))
	v.phase = kaExchange
	return engine.Continue(kaTurn)
}

// setColors records the set colors of the H-set, then sleeps to the
// segment's C-block.
func (v *kaVertex) setColors(api *engine.API, inbox []engine.Msg) engine.Step {
	v.setColor = make([]int32, api.Degree())
	for _, m := range inbox {
		if mc, ok := coloring.AsChosen(m, segKind); ok {
			if kk := api.NeighborIndex(m.From); v.tr.NbrH[kk] == v.tr.HIndex {
				v.setColor[kk] = mc
				continue
			}
		}
		v.Stray(api, m)
	}
	if start := v.plan.cStart[v.seg]; api.Round() < start {
		v.phase = kaWake
		return engine.Sleep(start-api.Round(), kaTurn)
	}
	return v.startWave(api)
}

// startWave recolors the segment from its palette block.
func (v *kaVertex) startWave(api *engine.API) engine.Step {
	parents := coloring.SetColorParents(&v.tr, v.lo, v.hi, v.setColor, v.dp1.Color())
	v.phase = kaWave
	return v.recolor(v.wave.Start(parents, int(v.seg)*(v.plan.A+1)))
}

// recolor terminates with the wave's color once it is done.
func (v *kaVertex) recolor(done bool) engine.Step {
	if done {
		return engine.Done(v.wave.Color())
	}
	return engine.Continue(kaTurn)
}

// Stray absorbs a message the coloring machines do not understand.
func (v *kaVertex) Stray(api *engine.API, m engine.Msg) {
	v.tr.Absorb(api, []engine.Msg{m})
}
