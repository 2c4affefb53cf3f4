package arbdefect

import (
	"math"

	"vavg/internal/coloring"
	"vavg/internal/engine"
	"vavg/internal/hpartition"
)

// Step (state-machine) forms of OnePlusEta and LegalColoringWC. Each
// mirrors its blocking counterpart round for round — the cross-form
// equivalence suite pins the two forms byte-identical — so the Section
// 7.8 pair runs goroutine-free on the step runner.

// classRec is a parent's class announcement at one arbdefective level.
type classRec struct {
	path   int64
	choice int32 // -1 until announced
}

// stageRun is the step form of stage as a value machine: the per-set
// (A+1)-coloring, the set-color exchange, the arbdefective levels along
// the orientation, then iterated Linial in the leaf class.
type stageRun struct {
	tr       *hpartition.Tracker
	prm      Params
	lo, hi   int32
	base     int
	leafP    int // leaf palette: a leaf class colors with [0, leafP)
	dp1      coloring.DeltaPlus1
	lin      coloring.Linial
	setColor []int32 // set colors by neighbor index, 0 if unheard
	// parents are the current parents (neighbor indices), and
	// cls[j*levels+l] is parent j's announcement at level l.
	parents   []int
	cls       []classRec
	k, levels int // classes per level, and the level count
	level     int
	path      int64
	best      int32
	waveEnd   int
	at        stageAt
}

// stageAt is what a stageRun's next Turn does.
type stageAt uint8

const (
	stColor    stageAt = iota // per-set (A+1)-coloring
	stExchange                // set colors arrive: orient, start the levels
	stReady                   // wait for the parents' choices at this level
	stChosen                  // the round after this vertex's choice
	stWaveEnd                 // the first round after the levels' budget
	stLeaf                    // iterated Linial in the leaf class
)

// Start begins the stage coloring the H-sets (lo, hi] from palette block
// base. The caller invokes it in the turn of the stage's global start
// round, with the inbox already absorbed into tr, which the machine keeps.
// Start and Turn return the rounds until the next turn, or done in the
// turn the blocking stage returns in.
//
//vavg:stepform
func (s *stageRun) Start(api *engine.API, tr *hpartition.Tracker, prm Params, lo, hi int32, base int) (wait int, done bool) {
	A := hpartition.ParamA(prm.A, prm.Eps)
	*s = stageRun{
		tr: tr, prm: prm, lo: lo, hi: hi, base: base,
		leafP: coloring.LinialFinalPalette(api.N(), prm.C),
		k:     prm.classK(), levels: prm.levels(A),
	}
	// Per-set (A+1)-coloring, all sets of the stage in parallel.
	if wait, done := s.dp1.Start(api, coloring.SetMembers(tr), A); !done {
		return wait, false
	}
	return s.exchange(api)
}

// Turn advances the stage by one round.
//
//vavg:stepform
func (s *stageRun) Turn(api *engine.API, inbox []engine.Msg) (wait int, done bool) {
	switch s.at {
	case stColor:
		if wait, done := s.dp1.Turn(api, inbox, s); !done {
			return wait, false
		}
		return s.exchange(api)
	case stExchange:
		return s.orient(api, inbox)
	case stLeaf:
		return 1, s.lin.Turn(api, inbox, s)
	}
	s.recv(api, inbox)
	switch s.at {
	case stReady:
		return s.choose(api)
	case stChosen:
		s.keep()
		s.path = s.path*int64(s.k) + int64(s.best)
		s.level++
		return s.choose(api)
	}
	return s.leaf(api)
}

// exchange announces the set color within the H-set.
func (s *stageRun) exchange(api *engine.API) (wait int, done bool) {
	coloring.BroadcastChosen(api, stageKind, int32(s.dp1.Color()))
	s.at = stExchange
	return 1, false
}

// orient records the set colors, orients the edges toward the later H-set
// or the higher set color, and starts the levels.
func (s *stageRun) orient(api *engine.API, inbox []engine.Msg) (wait int, done bool) {
	s.setColor = make([]int32, api.Degree())
	for _, m := range inbox {
		if c, ok := coloring.AsChosen(m, stageKind); ok {
			s.setColor[api.NeighborIndex(m.From)] = c
			continue
		}
		s.Stray(api, m)
	}
	s.parents = coloring.SetColorParents(s.tr, s.lo, s.hi, s.setColor, s.dp1.Color())
	s.cls = make([]classRec, len(s.parents)*s.levels)
	for j := range s.cls {
		s.cls[j].choice = -1
	}
	A := s.tr.A
	s.waveEnd = api.Round() + s.levels*((A+1)*int(s.hi-s.lo)+3) + 2
	return s.choose(api)
}

// choose takes this level's choice once every parent has announced its
// own: the class its parents on its path use least. After the last level
// it waits for the globally agreed round waveEnd, then starts the leaf.
func (s *stageRun) choose(api *engine.API) (wait int, done bool) {
	if s.level == s.levels {
		if api.Round() < s.waveEnd {
			s.at = stWaveEnd
			return s.waveEnd - api.Round(), false
		}
		return s.leaf(api)
	}
	for j := range s.parents {
		if s.rec(j).choice < 0 {
			s.at = stReady
			return 1, false
		}
	}
	best, least := 0, math.MaxInt
	for c := 0; c < s.k; c++ {
		count := 0
		for j := range s.parents {
			if r := s.rec(j); r.path == s.path && int(r.choice) == c {
				count++
			}
		}
		if count < least {
			best, least = c, count
		}
	}
	s.best = int32(best)
	api.Broadcast(classMsg{Level: int32(s.level), Path: s.path, Choice: s.best})
	s.at = stChosen
	return 1, false
}

// rec returns parent j's announcement at the current level.
func (s *stageRun) rec(j int) classRec { return s.cls[j*s.levels+s.level] }

// keep drops the parents that did not end up in this vertex's class (the
// same path and choice), moving the survivors' records along.
func (s *stageRun) keep() {
	n, L := 0, s.levels
	for j, kk := range s.parents {
		if r := s.rec(j); r.path == s.path && r.choice == s.best {
			s.parents[n] = kk
			copy(s.cls[n*L:(n+1)*L], s.cls[j*L:(j+1)*L])
			n++
		}
	}
	s.parents, s.cls = s.parents[:n], s.cls[:n*L]
}

// recv records the parents' class announcements and absorbs the rest.
func (s *stageRun) recv(api *engine.API, inbox []engine.Msg) {
	ids := api.NeighborIDs()
	for _, m := range inbox {
		cm, ok := m.Data.(classMsg)
		if !ok {
			s.Stray(api, m)
			continue
		}
		if int(cm.Level) >= s.levels {
			continue
		}
		for j, kk := range s.parents {
			if ids[kk] == m.From {
				s.cls[j*s.levels+int(cm.Level)] = classRec{path: cm.Path, choice: cm.Choice}
				break
			}
		}
	}
}

// leaf starts iterated Linial in the leaf class, along the inherited
// orientation.
func (s *stageRun) leaf(api *engine.API) (wait int, done bool) {
	s.at = stLeaf
	return 1, s.lin.Start(api, s.parents, s.prm.C)
}

// Color returns the vertex's color once the stage is done.
func (s *stageRun) Color() int { return s.base + int(s.path)*s.leafP + s.lin.Color() }

// Stray absorbs a message the stage does not understand.
func (s *stageRun) Stray(api *engine.API, m engine.Msg) {
	s.tr.Absorb(api, []engine.Msg{m})
}

// vertex is one vertex of OnePlusEtaStep and LegalColoringWCStep: its
// partition tracker and the stage it colors in, driven by one StepFn that
// dispatches on phase.
type vertex struct {
	prm   Params
	tr    hpartition.Tracker
	stage stageRun
	// Stage H colors the H-sets (0, hi] from round hSync on. A vertex
	// still active after r partition rounds joins the residual stage,
	// which colors (hi, ell] from round rSync on, its colors offset by
	// block.
	r, ell, hSync, rSync, block int
	hi                          int32
	phase                       vertexPhase
	fn                          engine.StepFn // v.turn, bound once
}

type vertexPhase uint8

const (
	partH   vertexPhase = iota // partition rounds toward stage H
	partR                      // residual partition rounds
	syncH                      // stage H's start round
	syncR                      // the residual stage's start round
	inStage                    // the stage
)

// OnePlusEtaStep is the step form of OnePlusEta.
func OnePlusEtaStep(a int, eps float64, C int) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		prm := Params{A: a, Eps: eps, C: C}
		v := &vertex{prm: prm, block: StageBlock(api.N(), prm)}
		v.r, v.ell, v.hSync, v.rSync = schedule(api.N(), prm)
		v.hi = int32(v.r)
		return v.boot(api)
	}
}

// LegalColoringWCStep is the step form of LegalColoringWC: a single stage
// H over every H-set, which no vertex leaves for the residual.
func LegalColoringWCStep(a int, eps float64, C int) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		ell := hpartition.EllBound(api.N(), eps)
		v := &vertex{prm: Params{A: a, Eps: eps, C: C}, r: math.MaxInt, ell: ell, hSync: ell + 2, hi: int32(ell)}
		return v.boot(api)
	}
}

// boot initializes the tracker and binds the turn.
func (v *vertex) boot(api *engine.API) engine.StepFn {
	v.tr.Init(api, v.prm.A, v.prm.Eps)
	v.fn = v.turn
	return v.fn
}

func (v *vertex) turn(api *engine.API, inbox []engine.Msg) engine.Step {
	if v.phase == inStage {
		return v.staged(v.stage.Turn(api, inbox))
	}
	v.tr.Absorb(api, inbox)
	switch v.phase {
	case syncH:
		v.phase = inStage
		return v.staged(v.stage.Start(api, &v.tr, v.prm, 0, v.hi, 0))
	case syncR:
		v.phase = inStage
		return v.staged(v.stage.Start(api, &v.tr, v.prm, v.hi, int32(v.ell), v.block))
	case partR:
		if v.tr.HIndex != 0 {
			return v.sleepUntil(api, v.rSync, syncR)
		}
	default:
		if v.tr.HIndex != 0 {
			return v.sleepUntil(api, v.hSync, syncH)
		}
		if api.Round() >= v.r {
			// Residual: finish the partition, then run the same stage.
			v.phase = partR
		}
	}
	v.tr.Advance(api)
	return engine.Continue(v.fn)
}

// sleepUntil parks the vertex until the turn of global round target, which
// continues in phase.
func (v *vertex) sleepUntil(api *engine.API, target int, phase vertexPhase) engine.Step {
	v.phase = phase
	return engine.Sleep(max(1, target-api.Round()), v.fn)
}

// staged continues the stage, or terminates with its color.
func (v *vertex) staged(wait int, done bool) engine.Step {
	if done {
		return engine.Done(v.stage.Color())
	}
	return engine.Sleep(wait, v.fn)
}
