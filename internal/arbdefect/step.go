package arbdefect

import (
	"math"
	"sort"

	"vavg/internal/coloring"
	"vavg/internal/engine"
	"vavg/internal/hpartition"
)

// Step (state-machine) forms of OnePlusEta and LegalColoringWC. Each
// mirrors its blocking counterpart round for round — the cross-form
// equivalence suite pins the two forms byte-identical — so the Section
// 7.8 pair runs goroutine-free on the step runner.

// sleepTo parks the vertex until the turn of global round target,
// absorbing the accumulated inbox into the partition tracker on wake.
func sleepTo(api *engine.API, tr *hpartition.Tracker, target int, next func(api *engine.API) engine.Step) engine.Step {
	k := target - api.Round()
	if k < 1 {
		k = 1
	}
	return engine.Sleep(k, func(api *engine.API, inbox []engine.Msg) engine.Step {
		tr.Absorb(api, inbox)
		return next(api)
	})
}

// startStage is the step form of stage. The caller invokes it in the turn
// of global round syncStart with the inbox already absorbed; done fires
// with the final color in the turn the blocking stage returns in.
func startStage(api *engine.API, tr *hpartition.Tracker, prm Params, lo, hi int32, base int, done func(int) engine.Step) engine.Step {
	n := api.N()
	A := hpartition.ParamA(prm.A, prm.Eps)
	sink := func(ms []engine.Msg) { tr.Absorb(api, ms) }

	i := tr.HIndex
	var members []int
	for k, h := range tr.NbrH {
		if h == i {
			members = append(members, k)
		}
	}

	var setColor int
	nbrSet := map[int]int{}
	var parents []int
	stageMember := map[int]bool{}
	kcl := prm.classK()
	numLevels := prm.levels(A)
	segLen := int(hi - lo)
	waveBudget := numLevels*((A+1)*segLen+3) + 2
	var waveEnd int
	path := int64(0)
	level := 0
	var lastBest int32
	choices := make(map[int][]int32)
	paths := make(map[int][]int64)
	recv := func(msgs []engine.Msg) {
		for _, m := range msgs {
			cm, ok := m.Data.(classMsg)
			if !ok {
				sink([]engine.Msg{m})
				continue
			}
			kk := api.NeighborIndex(m.From)
			for int(cm.Level) >= len(choices[kk]) {
				choices[kk] = append(choices[kk], -1)
				paths[kk] = append(paths[kk], -1)
			}
			choices[kk][cm.Level] = cm.Choice
			paths[kk][cm.Level] = cm.Path
		}
	}

	// Leaf: iterated Linial among the class, along the inherited
	// orientation, starting at the globally agreed round waveEnd.
	leaf := func(api *engine.API) engine.Step {
		ordered := make([]int, 0, len(stageMember))
		for kk := range stageMember {
			ordered = append(ordered, kk)
		}
		sort.Ints(ordered)
		var leafMembers []int
		for _, kk := range ordered {
			same := true
			for l := 0; l < numLevels; l++ {
				if len(paths[kk]) <= l || paths[kk][l]*int64(kcl)+int64(choices[kk][l]) !=
					pathPrefix(path, kcl, numLevels, l+1) {
					same = false
					break
				}
			}
			if same {
				leafMembers = append(leafMembers, kk)
			}
		}
		leafParents := parents
		P := coloring.LinialFinalPalette(n, prm.C)
		return coloring.StartIteratedLinial(api, leafMembers, leafParents, prm.C, sink, func(c int) engine.Step {
			return done(base + int(path)*P + c)
		})
	}
	waveWake := func(api *engine.API, inbox []engine.Msg) engine.Step {
		recv(inbox)
		return leaf(api)
	}
	finishLevels := func(api *engine.API) engine.Step {
		if api.Round() < waveEnd {
			return engine.Sleep(waveEnd-api.Round(), waveWake)
		}
		return leaf(api)
	}

	// Arbdefective levels along the orientation.
	var waitReady, afterChoice engine.StepFn
	var checkReady func(api *engine.API) engine.Step
	checkReady = func(api *engine.API) engine.Step {
		for _, kk := range parents {
			if len(choices[kk]) <= level || choices[kk][level] < 0 {
				return engine.Continue(waitReady)
			}
		}
		counts := make([]int, kcl)
		for _, kk := range parents {
			if paths[kk][level] == path {
				counts[choices[kk][level]]++
			}
		}
		best := 0
		for c := 1; c < kcl; c++ {
			if counts[c] < counts[best] {
				best = c
			}
		}
		api.Broadcast(classMsg{Level: int32(level), Path: path, Choice: int32(best)})
		lastBest = int32(best)
		return engine.Continue(afterChoice)
	}
	waitReady = func(api *engine.API, inbox []engine.Msg) engine.Step {
		recv(inbox)
		return checkReady(api)
	}
	afterChoice = func(api *engine.API, inbox []engine.Msg) engine.Step {
		recv(inbox)
		var keep []int
		for _, kk := range parents {
			if paths[kk][level] == path && choices[kk][level] == lastBest {
				keep = append(keep, kk)
			}
		}
		parents = keep
		path = path*int64(kcl) + int64(lastBest)
		level++
		if level < numLevels {
			return checkReady(api)
		}
		return finishLevels(api)
	}

	exch := func(api *engine.API, inbox []engine.Msg) engine.Step {
		for _, m := range inbox {
			if c, ok := coloring.AsChosen(m, stageKind); ok {
				nbrSet[api.NeighborIndex(m.From)] = int(c)
				continue
			}
			sink([]engine.Msg{m})
		}
		// Orientation: toward the later H-set, or the higher set color.
		for k, h := range tr.NbrH {
			if h <= lo || h > hi {
				continue
			}
			if h > i || (h == i && nbrSet[k] > setColor) {
				parents = append(parents, k)
			}
		}
		for k, h := range tr.NbrH {
			if h > lo && h <= hi {
				stageMember[k] = true
			}
		}
		waveEnd = api.Round() + waveBudget
		if level < numLevels {
			return checkReady(api)
		}
		return finishLevels(api)
	}

	// Per-set (A+1)-coloring, all sets of the stage in parallel.
	return coloring.StartDeltaPlus1OnSet(api, members, A, sink, func(c int) engine.Step {
		setColor = c
		coloring.BroadcastChosen(api, stageKind, int32(setColor))
		return engine.Continue(exch)
	})
}

// OnePlusEtaStep is the step form of OnePlusEta.
func OnePlusEtaStep(a int, eps float64, C int) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		n := api.N()
		prm := Params{A: a, Eps: eps, C: C}
		A := hpartition.ParamA(a, eps)
		tr := hpartition.NewTracker(api, a, eps)
		r := int(math.Ceil(2 * math.Log2(math.Max(2, math.Log2(float64(max(n, 4)))))))
		ell := hpartition.EllBound(n, eps)
		if r > ell {
			r = ell
		}
		dp1 := coloring.DeltaPlus1Rounds(n, A)
		numLevels := prm.levels(A)
		block := StageBlock(n, prm)

		hSync := r + 2
		hEnd := hSync + dp1 + 1 + numLevels*((A+1)*r+3) + 2 +
			coloring.IteratedLinialRounds(n, prm.C) + 2
		rSync := maxInt(ell+2, hEnd)

		stageH := func(api *engine.API) engine.Step {
			return startStage(api, tr, prm, 0, int32(r), 0, func(c int) engine.Step {
				return engine.Done(c)
			})
		}
		stageR := func(api *engine.API) engine.Step {
			return startStage(api, tr, prm, int32(r), int32(ell), block, func(c int) engine.Step {
				return engine.Done(c)
			})
		}
		var partH, partR engine.StepFn
		partR = func(api *engine.API, inbox []engine.Msg) engine.Step {
			tr.Absorb(api, inbox)
			if tr.HIndex != 0 {
				return sleepTo(api, tr, rSync, stageR)
			}
			tr.Advance(api)
			return engine.Continue(partR)
		}
		decide := func(api *engine.API) engine.Step {
			if tr.HIndex != 0 {
				return sleepTo(api, tr, hSync, stageH)
			}
			if api.Round() < r {
				tr.Advance(api)
				return engine.Continue(partH)
			}
			// Residual: finish the partition, then run the same stage.
			tr.Advance(api)
			return engine.Continue(partR)
		}
		partH = func(api *engine.API, inbox []engine.Msg) engine.Step {
			tr.Absorb(api, inbox)
			return decide(api)
		}
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			return decide(api)
		}
	}
}

// LegalColoringWCStep is the step form of LegalColoringWC.
func LegalColoringWCStep(a int, eps float64, C int) engine.StepProgram {
	return func(api *engine.API) engine.StepFn {
		n := api.N()
		prm := Params{A: a, Eps: eps, C: C}
		ell := hpartition.EllBound(n, eps)
		tr := hpartition.NewTracker(api, a, eps)
		stage := func(api *engine.API) engine.Step {
			return startStage(api, tr, prm, 0, int32(ell), 0, func(c int) engine.Step {
				return engine.Done(c)
			})
		}
		var part engine.StepFn
		part = func(api *engine.API, inbox []engine.Msg) engine.Step {
			tr.Absorb(api, inbox)
			if tr.HIndex != 0 {
				return sleepTo(api, tr, ell+2, stage)
			}
			tr.Advance(api)
			return engine.Continue(part)
		}
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			tr.Advance(api)
			return engine.Continue(part)
		}
	}
}
