package randcolor

import (
	"math"

	"vavg/internal/engine"
	"vavg/internal/hpartition"
	"vavg/internal/wire"
)

// Step (state-machine) forms of the randomized colorings. Every turn
// reproduces one round of the blocking form — same PRNG draw order, same
// broadcasts, same termination round — so the two forms are
// byte-identical.

// noFinal marks a neighbor whose final color has not arrived.
const noFinal = math.MinInt32

// vertex is one vertex of DeltaPlus1Step or ALogLogStep: the Luby-style
// protocol of randColorLoop on one palette block and, for ALogLog, the
// partition and the neighbors' final colors that choose the block and
// the rivals. One StepFn dispatches on phase.
type vertex struct {
	aloglog bool
	tr      hpartition.Tracker
	// finals[k] is neighbor k's flat final color, or noFinal (ALogLog).
	finals []int32
	// forbidden marks the block's offsets owned by finished rivals.
	forbidden []bool
	cand      int32 // this round's candidate offset, or -1
	base      int32 // the block's first color
	t         int   // ALogLog's phase-1 partition rounds
	phase2    bool  // coloring on ALogLog's shared phase-2 block
	phase     phase
}

type phase uint8

const (
	dp1Start  phase = iota // DeltaPlus1's first turn
	alPart1                // ALogLog phase 1: partition rounds
	alSettle1              // settle round of a phase-1 H-set
	alPart2                // ALogLog phase 2: finish the partition
	alWait                 // wait for active and later-set neighbors to finalize
	colorLoop              // the protocol's rounds
)

// DeltaPlus1Step is the step form of DeltaPlus1.
func DeltaPlus1Step() engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		*engine.State[vertex](api) = vertex{}
		return vertexTurn
	}
}

// ALogLogStep is the step form of ALogLog: the same two phases, with each
// blocking wait loop unrolled into one turn per round.
func ALogLogStep(a int, eps float64) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		v := engine.State[vertex](api)
		*v = vertex{aloglog: true, finals: make([]int32, api.Degree()), phase: alPart1}
		v.tr.Init(api, a, eps)
		v.t = phase1T(api.N(), hpartition.EllBound(api.N(), eps))
		for k := range v.finals {
			v.finals[k] = noFinal
		}
		return vertexTurn
	}
}

// vertexTurn is every turn of a DeltaPlus1Step or ALogLogStep vertex.
func vertexTurn(api *engine.API, inbox []engine.Msg) engine.Step {
	return engine.State[vertex](api).turn(api, inbox)
}

func (v *vertex) turn(api *engine.API, inbox []engine.Msg) engine.Step {
	v.absorb(api, inbox)
	switch v.phase {
	case dp1Start:
		v.start(api.Degree()+1, 0)
		v.draw(api)
		return engine.Continue(vertexTurn)
	case alPart1:
		if v.tr.HIndex != 0 {
			v.phase = alSettle1
			return engine.Continue(vertexTurn)
		}
		if api.Round() >= v.t {
			v.phase = alPart2
		}
		v.tr.Advance(api)
		return engine.Continue(vertexTurn)
	case alSettle1:
		// Phase 1 colors on its set's private block and draws its first
		// candidate before it refreshes the forbidden offsets.
		v.start(v.tr.A+1, int32(v.tr.HIndex-1)*int32(v.tr.A+1))
		v.draw(api)
		return engine.Continue(vertexTurn)
	case alPart2:
		if v.tr.HIndex == 0 {
			v.tr.Advance(api)
			return engine.Continue(vertexTurn)
		}
		v.phase = alWait
	case colorLoop:
		v.refresh()
		conflict := false
		for _, m := range inbox {
			if x, ok := m.AsInt(); ok && wire.Tag(x) == wire.TagTent &&
				int32(wire.Payload(x)) == v.cand && v.rival(api.NeighborIndex(m.From)) {
				conflict = true
			}
		}
		if v.cand >= 0 && !conflict && !v.forbidden[v.cand] {
			return engine.Done(int(v.base + v.cand))
		}
		v.draw(api)
		return engine.Continue(vertexTurn)
	}
	// alWait: phase 2 colors on the shared block once every still-active
	// or later-set neighbor has finalized, refreshing before its first
	// draw.
	for k, h := range v.tr.NbrH {
		if (h == 0 || h > v.tr.HIndex) && v.finals[k] == noFinal {
			return engine.Continue(vertexTurn)
		}
	}
	v.phase2 = true
	v.start(v.tr.A+1, int32(v.t)*int32(v.tr.A+1))
	v.refresh()
	v.draw(api)
	return engine.Continue(vertexTurn)
}

// start enters the protocol on the block of size colors from base.
func (v *vertex) start(size int, base int32) {
	v.forbidden = make([]bool, size)
	v.base = base
	v.phase = colorLoop
}

// absorb records one round's partition traffic and final colors:
// DeltaPlus1 forbids every final color at once, ALogLog files them by
// neighbor for refresh.
func (v *vertex) absorb(api *engine.API, msgs []engine.Msg) {
	if v.aloglog {
		v.tr.Absorb(api, msgs)
	}
	for _, m := range msgs {
		f, ok := m.Data.(engine.Final)
		if !ok {
			continue
		}
		c, ok := finalColor(f.Output)
		switch {
		case !ok:
		case v.aloglog:
			v.finals[api.NeighborIndex(m.From)] = c
		default:
			v.forbid(c)
		}
	}
}

// refresh forbids the block's offsets that ALogLog's finished rivals own.
func (v *vertex) refresh() {
	if !v.aloglog {
		return
	}
	for k, f := range v.finals {
		if f != noFinal && f >= v.base && v.rival(k) {
			v.forbid(f - v.base)
		}
	}
}

// forbid marks a block offset as taken; offsets outside the block are
// never drawn, so they need no mark.
func (v *vertex) forbid(c int32) {
	if c >= 0 && int(c) < len(v.forbidden) {
		v.forbidden[c] = true
	}
}

// rival reports whether neighbor k competes for this vertex's block: in
// DeltaPlus1 every neighbor, in ALogLog the vertex's own phase-1 set or
// the later phase-2 sets.
func (v *vertex) rival(k int) bool {
	switch {
	case !v.aloglog:
		return true
	case v.phase2:
		return v.tr.NbrH[k] > int32(v.t)
	}
	return v.tr.NbrH[k] == v.tr.HIndex
}

// draw flips the round's coin and, on heads, broadcasts a uniform offset
// among the free ones as the candidate.
func (v *vertex) draw(api *engine.API) {
	v.cand = -1
	if api.Rand().Intn(2) == 0 {
		return
	}
	free := 0
	for _, taken := range v.forbidden {
		if !taken {
			free++
		}
	}
	if free == 0 {
		panic("randcolor: palette exhausted (invariant violated)")
	}
	i := api.Rand().Intn(free)
	for c, taken := range v.forbidden {
		if taken {
			continue
		}
		if i == 0 {
			v.cand = int32(c)
			break
		}
		i--
	}
	api.BroadcastInt(wire.Pack(wire.TagTent, int64(v.cand)))
}
