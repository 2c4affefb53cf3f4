package vavg

import (
	"math"
	"reflect"
	gort "runtime"
	"testing"

	"vavg/internal/engine"
)

// form is one execution form of a registry algorithm, packed as a
// single-form Spec so that engine.RunSpec has exactly one way to run it.
type form struct {
	name string
	spec engine.Spec
}

// forms returns alg's blocking and step forms as single-form Specs,
// blocking first: its goroutine run is the reference the step run must
// reproduce. Runs through the public API only ever execute the step form,
// so these suites are what keep the blocking form honest.
func (alg Algorithm) forms(p Params) []form {
	return []form{
		{"blocking", engine.Spec{Program: alg.program(p)}},
		{"step", engine.Spec{Step: alg.step(p)}},
	}
}

// TestCrossBackendEquivalenceRegistry is the deliverable contract of the
// two-form engine: for every registered algorithm on every graph family,
// identical seeds must yield byte-identical engine Results — rounds,
// commitments, outputs, active-set decay, message counts — whether the
// blocking form runs on one goroutine per vertex or the step form runs on
// the sharded step runner. The form is an execution strategy, not
// semantics, so this suite pins every step translation to its blocking
// original.
func TestCrossBackendEquivalenceRegistry(t *testing.T) {
	oldProcs := gort.GOMAXPROCS(4) // force multi-shard step runs
	defer gort.GOMAXPROCS(oldProcs)

	families := []struct {
		name string
		gen  func() *Graph
		a    int
	}{
		{"ring", func() *Graph { return Ring(160) }, 2},
		{"forests", func() *Graph { return ForestUnion(160, 3, 7) }, 3},
		{"starforest", func() *Graph { return StarForest(160, 16) }, 2},
		{"trigrid", func() *Graph { return TriangulatedGrid(12, 12) }, 3},
		{"tree", func() *Graph { return RandomTree(160, 5) }, 1},
		{"gnm", func() *Graph { return Gnm(140, 420, 9) }, 0},
	}
	for _, alg := range Algorithms() {
		for _, fam := range families {
			if alg.RingOnly && fam.name != "ring" {
				continue
			}
			if testing.Short() && fam.name != "ring" && fam.name != "forests" {
				continue
			}
			alg, fam := alg, fam
			t.Run(alg.Name+"/"+fam.name, func(t *testing.T) {
				t.Parallel()
				g := fam.gen()
				p := Params{Arboricity: fam.a, Seed: 11, MaxRounds: 1 << 21}.withDefaults(g)
				var results []*engine.Result
				for _, f := range alg.forms(p) {
					res, err := engine.RunSpec(g, f.spec, engine.Options{Seed: p.Seed, MaxRounds: p.MaxRounds})
					if err != nil {
						t.Fatalf("%s form: %v", f.name, err)
					}
					// Shards is layout provenance (0 for the blocking form),
					// not an observable; the equivalence contract covers
					// everything else.
					res.Shards = 0
					results = append(results, res)
				}
				base, res := results[0], results[1]
				if !reflect.DeepEqual(base, res) {
					t.Errorf("step form Result differs from blocking:\n rounds eq=%v outputs eq=%v active eq=%v messages %d vs %d",
						reflect.DeepEqual(base.Rounds, res.Rounds),
						reflect.DeepEqual(base.Output, res.Output),
						reflect.DeepEqual(base.ActivePerRound, res.ActivePerRound),
						base.Messages, res.Messages)
				}
			})
		}
	}
}

// TestRegistryStepForms pins the two-form registry contract: every
// registered algorithm ships both a blocking program, the reference the
// equivalence suites check against, and a step form, which is what every
// run through the public API executes.
func TestRegistryStepForms(t *testing.T) {
	for _, alg := range Algorithms() {
		if alg.program == nil {
			t.Errorf("algorithm %s has no blocking program", alg.Name)
		}
		if alg.step == nil {
			t.Errorf("algorithm %s has no step form", alg.Name)
		}
	}
}

// TestStepWorkerInvarianceRegistry extends the worker-invariance gate
// from synthetic programs to the real registry: for every algorithm, the
// step form must produce byte-identical Results at GOMAXPROCS
// P ∈ {1, 2, 4, 8} — P shards and P workers — faultless and under a
// drop+crash+restart scenario. CI runs this under -race, where any
// cross-shard store outside the staged lanes surfaces as a race rather
// than a flake.
func TestStepWorkerInvarianceRegistry(t *testing.T) {
	forest := ForestUnion(160, 3, 7)
	ring := Ring(160)
	sc := &Scenario{Drop: 0.1, CrashFrac: 0.03, CrashRound: 4, RestartAfter: 8, Seed: 9,
		Crashes: []Crash{{V: 1, Round: 2}, {V: 5, Round: 5, Restart: 9}}}
	points := []int{1, 2, 4, 8}
	if testing.Short() {
		points = []int{1, 4}
	}
	for _, alg := range Algorithms() {
		g, a := forest, 3
		if alg.RingOnly {
			g, a = ring, 2
		}
		alg, g, a := alg, g, a
		t.Run(alg.Name, func(t *testing.T) {
			// GOMAXPROCS is process-global, so the P axis runs sequentially
			// (no t.Parallel) and each point restores the previous value.
			p := Params{Arboricity: a, Seed: 11, MaxRounds: 1 << 21}.withDefaults(g)
			spec := engine.Spec{Step: alg.step(p)}
			for _, fault := range []string{"faultless", "dropcrash"} {
				opts := engine.Options{Seed: p.Seed, MaxRounds: p.MaxRounds}
				if fault == "dropcrash" {
					adv, err := sc.Clone().Compile(g.N(), p.Seed)
					if err != nil {
						t.Fatal(err)
					}
					// A crashed-forever vertex can strand a run; the budget
					// turns that into a deterministic DNF outcome that must
					// itself be invariant across layouts.
					opts.Adv = adv
					opts.MaxRounds = 4096
				}
				type outcome struct {
					res *engine.Result
					dnf bool
				}
				var base outcome
				for _, P := range points {
					old := gort.GOMAXPROCS(P)
					res, err := engine.RunSpec(g, spec, opts)
					gort.GOMAXPROCS(old)
					if res == nil {
						t.Fatalf("%s P=%d: %v", fault, P, err)
					}
					// The recorded shard count tracks P by construction;
					// everything else must be invariant in it.
					res.Shards = 0
					got := outcome{res, err != nil}
					if P == points[0] {
						base = got
						continue
					}
					if got.dnf != base.dnf || !reflect.DeepEqual(base.res, got.res) {
						t.Errorf("%s P=%d: Result differs from P=%d (dnf %v vs %v; messages %d vs %d, roundSum %d vs %d)",
							fault, P, points[0], got.dnf, base.dnf,
							got.res.Messages, base.res.Messages,
							got.res.RoundSum, base.res.RoundSum)
					}
				}
			}
		})
	}
}

// TestStepDecayShape re-runs the Lemma 6.1 assertions against the step
// form of Procedure Partition: on the active-set step scheduler too, the
// active set must decay within the geometric envelope n*(2/(2+eps))^i,
// and the accounting identities RoundSum == sum(ActivePerRound) and
// VertexAverage <= TotalRounds must hold exactly.
func TestStepDecayShape(t *testing.T) {
	const (
		n   = 4096
		a   = 3
		eps = 2.0
	)
	g := ForestUnion(n, a, 23)
	alg, err := ByName("partition")
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Arboricity: a, Seed: 5, MaxRounds: 1 << 21}.withDefaults(g)
	res, err := engine.RunSpec(g, engine.Spec{Step: alg.step(p)}, engine.Options{Seed: p.Seed, MaxRounds: p.MaxRounds})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for i, act := range res.ActivePerRound {
		sum += int64(act)
		// One slack round: vertices pay a final output round after the
		// partition decision, shifting the measured decay by one.
		bound := float64(n) * math.Pow(2/(2+eps), math.Max(float64(i-1), 0))
		if float64(act) > bound+1 {
			t.Errorf("round %d: active %d exceeds Lemma 6.1 envelope %.1f", i+1, act, bound)
		}
	}
	if sum != res.RoundSum {
		t.Errorf("sum of ActivePerRound = %d, RoundSum = %d", sum, res.RoundSum)
	}
	if res.VertexAverage() > float64(res.TotalRounds) {
		t.Errorf("VertexAverage %.2f exceeds TotalRounds %d", res.VertexAverage(), res.TotalRounds)
	}
}
