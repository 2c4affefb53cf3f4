package vavg

import (
	"errors"
	"fmt"

	"vavg/internal/check"
	"vavg/internal/engine"
	"vavg/internal/metrics"
	"vavg/internal/scenario"
)

// runScenario executes alg under an adversarial scenario: the compiled
// crash/drop adversary rides the base run inside the engine, and dynamic
// edge events trigger incremental repair epochs afterwards. Degraded
// outputs are a measurement here, not a failure — hard validation is
// replaced by conflict counting, and a run that exhausts its round budget
// is reported as a non-converged data point rather than an error.
func (alg Algorithm) runScenario(g *Graph, p Params) (Report, error) {
	// Clone first: Compile/Epochs canonicalize the spec in place, and the
	// caller's Spec may be shared across concurrent sweep points.
	spec := p.Scenario.Clone()
	adv, err := spec.Compile(g.N(), p.Seed)
	if err != nil {
		return Report{}, fmt.Errorf("vavg: %s on %s: %w", alg.Name, g.Name, err)
	}
	epochs, err := spec.Epochs(g.N())
	if err != nil {
		return Report{}, fmt.Errorf("vavg: %s on %s: %w", alg.Name, g.Name, err)
	}

	// Only the base run uses the relabeled view: repair epochs re-execute
	// on dynamically edited graphs (fresh structures with no cached view,
	// and a tiny affected region), and all their indexing is original-ID.
	rg, err := relabelFor(g, p)
	if err != nil {
		return Report{}, fmt.Errorf("vavg: %s on %s: %w", alg.Name, g.Name, err)
	}
	res, err := engine.RunSpec(rg, engine.Spec{Step: alg.step(p)}, engine.Options{
		Seed: p.Seed, MaxRounds: p.MaxRounds, Adv: adv,
	})
	converged := true
	if err != nil {
		if res == nil || !errors.Is(err, engine.ErrMaxRounds) {
			return Report{}, fmt.Errorf("vavg: %s on %s: %w", alg.Name, g.Name, err)
		}
		converged = false
	}

	// Dynamic epochs: apply each batch of edge events and re-execute the
	// affected vertices against frozen survivors (see repairEpoch). Repair
	// costs accrue to the affected region only; whatever invariants the
	// one-shot repair cannot restore surface as residual conflicts below.
	cur := g
	for i, ep := range epochs {
		cur = scenario.Apply(cur, ep.Events)
		if !repairEpoch(alg, cur, p, spec, i, ep, res) {
			converged = false
		}
	}

	rep := metrics.FromResult(alg.Name, cur.Name, cur.N(), cur.M(), p.Arboricity, p.Seed, res)
	rep.Converged = converged
	alg.degradedAudit(cur, res, &rep)
	return rep, nil
}

// repairBudget bounds a repair epoch's rounds: generous relative to the
// base run, but finite — repairs that livelock against frozen neighbors
// are DNF data points, not hangs.
func repairBudget(base int) int {
	b := 4 * base
	if b < 256 {
		b = 256
	}
	return b
}

// repairEpoch re-executes one epoch's affected vertices on the updated
// graph, running the algorithm's step form. Every other vertex is frozen:
// its first turn returns Done with its prior output, so it terminates in
// one round after re-broadcasting that output to its (possibly new)
// neighbors — the surviving state the affected region recomputes
// against. Crashed-forever vertices stay frozen at nil. The repair reuses the scenario's drop probability with
// an epoch-derived seed, so losses stay i.i.d. across epochs yet the
// whole dynamic run remains a pure function of (seeds, spec).
//
// Accounting merges into res: affected vertices' outputs and added
// rounds, the epoch's full message and loss traffic, and the worst-case
// round count. It reports false when the repair itself failed to
// converge (affected vertices then keep their prior outputs).
func repairEpoch(alg Algorithm, cur *Graph, p Params, spec *scenario.Spec, i int, ep scenario.Epoch, res *engine.Result) bool {
	n := cur.N()
	frozen := make([]bool, n)
	for v := range frozen {
		frozen[v] = true
	}
	for _, v := range ep.Affected {
		if res.Crashed == nil || !res.Crashed[v] {
			frozen[v] = false
		}
	}
	prior := res.Output
	prog := alg.step(p)
	frozenTurn := func(api *engine.API, _ []engine.Msg) engine.Step {
		return engine.Done(prior[api.ID()])
	}
	base := func(api *engine.API) engine.StepFn {
		if frozen[api.ID()] {
			return frozenTurn
		}
		return prog(api)
	}

	epochSeed := spec.EpochSeed(p.Seed, i)
	var radv *engine.Adversary
	if spec.Drop > 0 {
		ds := &scenario.Spec{Drop: spec.Drop, Seed: spec.Seed}
		var err error
		if radv, err = ds.Compile(n, epochSeed); err != nil {
			return false
		}
	}
	rres, err := engine.RunSpec(cur, engine.Spec{Step: base}, engine.Options{
		Seed: epochSeed, MaxRounds: repairBudget(res.TotalRounds), Adv: radv,
	})
	if rres == nil {
		return false
	}
	ok := err == nil

	for _, v := range ep.Affected {
		if frozen[v] {
			continue
		}
		if rres.Output[v] != nil || ok {
			res.Output[v] = rres.Output[v]
		}
		res.Rounds[v] += rres.Rounds[v]
		res.RoundSum += int64(rres.Rounds[v])
		if int(res.Rounds[v]) > res.TotalRounds {
			res.TotalRounds = int(res.Rounds[v])
		}
	}
	res.Messages += rres.Messages
	res.Dropped += rres.Dropped
	res.LostToCrash += rres.LostToCrash
	return ok
}

// degradedAudit fills the degradation measurements of a scenario run:
// distinct colors / output size over the assigned vertices, and the
// residual-conflict count for the output kinds with a counting checker
// (-1 for the rest). Unassigned outputs (crashed or non-converged
// vertices) are tolerated everywhere.
func (alg Algorithm) degradedAudit(g *Graph, res *engine.Result, rep *Report) {
	switch alg.Kind {
	case KindVertexColoring:
		cols := make([]int, g.N())
		for v, o := range res.Output {
			if c, ok := o.(int); ok && c >= 0 {
				cols[v] = c
			} else {
				cols[v] = -1
			}
		}
		distinct := map[int]bool{}
		for _, c := range cols {
			if c >= 0 {
				distinct[c] = true
			}
		}
		rep.Colors = len(distinct)
		rep.ResidualConflicts = check.ColoringConflicts(g, cols)
	case KindMIS:
		in := make([]bool, g.N())
		assigned := make([]bool, g.N())
		size := 0
		for v, o := range res.Output {
			if b, ok := o.(bool); ok {
				in[v], assigned[v] = b, true
				if b {
					size++
				}
			}
		}
		rep.Size = size
		rep.ResidualConflicts = check.MISConflicts(g, in, assigned)
	case KindMatching:
		m := make([]int32, g.N())
		assigned := make([]bool, g.N())
		size := 0
		for v, o := range res.Output {
			if w, ok := o.(int32); ok {
				m[v], assigned[v] = w, true
				if w >= 0 {
					size++
				}
			}
		}
		rep.Size = size / 2
		rep.ResidualConflicts = check.MatchingConflicts(g, m, assigned)
	}
}
