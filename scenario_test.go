package vavg

import (
	"reflect"
	gort "runtime"
	"testing"

	"vavg/internal/engine"
)

// TestScenarioZeroFaultIdentity is the zero-overhead contract of the
// adversarial layer: a zero Scenario (all probabilities 0, no schedules)
// must produce byte-identical engine Results to a scenario-free run for
// every registry algorithm in both forms — both through the facade
// (where the zero spec short-circuits to the fault-free path) and through
// an explicitly compiled zero Adversary driven through the adversary
// branches of the hot path.
func TestScenarioZeroFaultIdentity(t *testing.T) {
	oldProcs := gort.GOMAXPROCS(4)
	defer gort.GOMAXPROCS(oldProcs)

	forests := ForestUnion(160, 3, 7)
	ring := Ring(160)
	for _, alg := range Algorithms() {
		alg := alg
		// Ring-structure and reference algorithms run on their required
		// topology, as in the cross-form equivalence suite.
		g := forests
		arb := 3
		if alg.RingOnly {
			g, arb = ring, 2
		}
		t.Run(alg.Name, func(t *testing.T) {
			t.Parallel()
			p := Params{Arboricity: arb, Seed: 11}.withDefaults(g)
			// An explicitly zero adversary forces the adversary branches of
			// flush/collect while deciding nothing — it must not perturb a
			// single byte of the Result.
			zero := &engine.Adversary{}
			if err := zero.Normalize(g.N()); err != nil {
				t.Fatal(err)
			}
			for _, f := range alg.forms(p) {
				plain, err := engine.RunSpec(g, f.spec, engine.Options{
					Seed: p.Seed, MaxRounds: p.MaxRounds,
				})
				if err != nil {
					t.Fatalf("%s form: %v", f.name, err)
				}
				adv, err := engine.RunSpec(g, f.spec, engine.Options{
					Seed: p.Seed, MaxRounds: p.MaxRounds, Adv: zero,
				})
				if err != nil {
					t.Fatalf("%s form with zero adversary: %v", f.name, err)
				}
				// The adversary run reports its (empty) accounting arrays;
				// blank them before the byte comparison of everything else.
				if adv.Dropped != 0 || adv.LostToCrash != 0 || adv.CrashedForever != 0 || adv.Restarts != 0 {
					t.Errorf("%s form: zero adversary recorded faults: %+v", f.name, adv)
				}
				for v, c := range adv.Crashed {
					if c {
						t.Errorf("%s form: zero adversary crashed vertex %d", f.name, v)
					}
				}
				adv.Crashed = nil
				if !reflect.DeepEqual(plain, adv) {
					t.Errorf("%s form: zero-adversary Result differs from scenario-free run", f.name)
				}
			}

			// The facade identity: a zero Spec routes through the fault-free
			// path and must match a nil Scenario report exactly.
			plainRep, err := alg.Run(g, Params{Arboricity: arb, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			zeroRep, err := alg.Run(g, Params{Arboricity: arb, Seed: 11, Scenario: &Scenario{}})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plainRep, zeroRep) {
				t.Errorf("zero-Scenario Report differs from scenario-free Report")
			}
		})
	}
}

// faultScenarios are the schedules the equivalence and robustness suites
// drive: drops alone, crashes alone, crash+restart, and the full mix.
func faultScenarios() []*Scenario {
	return []*Scenario{
		{Drop: 0.25, Seed: 7},
		{CrashFrac: 0.05, CrashRound: 3, Seed: 7},
		{CrashFrac: 0.05, CrashRound: 3, RestartAfter: 6, Seed: 7},
		{Drop: 0.1, CrashFrac: 0.03, CrashRound: 4, RestartAfter: 8, Seed: 9,
			Crashes: []Crash{{V: 1, Round: 2}, {V: 5, Round: 5, Restart: 9}}},
	}
}

// TestScenarioEquivalenceAcrossBackends extends the cross-form
// equivalence contract to faulty runs: the same (run seed, scenario seed,
// spec) must yield byte-identical engine Results from the blocking and
// the step form, whether or not the run converges within its round
// budget.
func TestScenarioEquivalenceAcrossBackends(t *testing.T) {
	oldProcs := gort.GOMAXPROCS(4)
	defer gort.GOMAXPROCS(oldProcs)

	g := ForestUnion(160, 3, 7)
	// Every entry that runs KW, whose step form sleeps through most of a
	// phase, is listed: which turn reads which phase's announcements is
	// what a fault-free run pins least.
	algs := []string{"partition", "forest-decomp", "mis", "matching", "ka", "deltaplus1-det", "a-loglog", "one-plus-eta"}
	for _, name := range algs {
		alg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for si, sc := range faultScenarios() {
			alg, sc, si := alg, sc, si
			t.Run(alg.Name, func(t *testing.T) {
				t.Parallel()
				p := Params{Arboricity: 3, Seed: 11, MaxRounds: 4096}.withDefaults(g)
				adv, err := sc.Clone().Compile(g.N(), p.Seed)
				if err != nil {
					t.Fatal(err)
				}
				type outcome struct {
					res  *engine.Result
					fail bool
				}
				var results []outcome
				for _, f := range alg.forms(p) {
					res, err := engine.RunSpec(g, f.spec, engine.Options{
						Seed: p.Seed, MaxRounds: p.MaxRounds, Adv: adv,
					})
					if res == nil {
						t.Fatalf("scenario %d %s form: %v", si, f.name, err)
					}
					// Shards is layout provenance, excluded from equivalence.
					res.Shards = 0
					results = append(results, outcome{res, err != nil})
				}
				base, o := results[0], results[1]
				if o.fail != base.fail || !reflect.DeepEqual(base.res, o.res) {
					t.Errorf("scenario %d: step form Result differs from blocking (dnf %v vs %v; messages %d vs %d, dropped %d vs %d, roundSum %d vs %d)",
						si, o.fail, base.fail,
						base.res.Messages, o.res.Messages,
						base.res.Dropped, o.res.Dropped,
						base.res.RoundSum, o.res.RoundSum)
				}
				// The accounting identity under faults: crashed vertices pay
				// rounds through their crash round and appear in the decay,
				// so without restarts the fault-free identity holds exactly.
				// A restarted vertex's RoundSum contribution additionally
				// includes its outage window — wall-clock rounds to final
				// termination — which ActivePerRound does not count, so with
				// restarts the decay only bounds RoundSum from below.
				var sum int64
				for _, a := range base.res.ActivePerRound {
					sum += int64(a)
				}
				restarts := sc.RestartAfter > 0
				for _, cr := range sc.Crashes {
					restarts = restarts || cr.Restart > 0
				}
				if !restarts && sum != base.res.RoundSum {
					t.Errorf("scenario %d: sum(ActivePerRound)=%d, RoundSum=%d", si, sum, base.res.RoundSum)
				}
				if restarts && sum > base.res.RoundSum {
					t.Errorf("scenario %d: sum(ActivePerRound)=%d exceeds RoundSum=%d", si, sum, base.res.RoundSum)
				}
			})
		}
	}
}

// TestScenarioSweepWorkerInvariance pins the facade-level determinism
// claim: a faulty sweep is byte-identical at any SweepWorkers count.
func TestScenarioSweepWorkerInvariance(t *testing.T) {
	alg, err := ByName("partition")
	if err != nil {
		t.Fatal(err)
	}
	sc := &Scenario{Drop: 0.2, CrashFrac: 0.04, CrashRound: 3, RestartAfter: 5, Seed: 13}
	gen := func(n int) *Graph { return ForestUnion(n, 3, 5) }
	var base *SweepResult
	for _, workers := range []int{1, 4} {
		p := Params{Arboricity: 3, MaxRounds: 4096, Scenario: sc, SweepWorkers: workers}
		got, err := Sweep(alg, gen, []int{64, 128, 256}, []int64{1, 2}, p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = got
			continue
		}
		if !reflect.DeepEqual(base, got) {
			t.Errorf("sweep with %d workers differs from serial sweep", workers)
		}
	}
}

// TestScenarioDegradation sanity-checks the degradation measurements on a
// lossy, crashy run: losses are recorded, crashed vertices are reported,
// and the conflict counters see the holes the crashes leave.
func TestScenarioDegradation(t *testing.T) {
	g := ForestUnion(400, 3, 3)
	alg, err := ByName("mis")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := alg.Run(g, Params{Arboricity: 3, Seed: 5, MaxRounds: 4096,
		Scenario: &Scenario{CrashFrac: 0.1, CrashRound: 3, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CrashedForever == 0 {
		t.Error("crash scenario reported no crashed vertices")
	}
	if rep.LostToCrash == 0 {
		t.Error("crash scenario reported no deliveries lost to crashes")
	}
	if rep.ResidualConflicts < rep.CrashedForever {
		t.Errorf("ResidualConflicts %d below crashed-forever count %d (each crashed vertex is at least unassigned)",
			rep.ResidualConflicts, rep.CrashedForever)
	}

	// A restart scenario must record the reboots.
	rep2, err := alg.Run(g, Params{Arboricity: 3, Seed: 5, MaxRounds: 4096,
		Scenario: &Scenario{CrashFrac: 0.1, CrashRound: 3, RestartAfter: 4, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Restarts == 0 {
		t.Error("restart scenario reported no restarts")
	}
	if rep2.CrashedForever != 0 {
		t.Errorf("restart scenario reported %d crashed-forever vertices", rep2.CrashedForever)
	}
}

// TestScenarioDynamicEdges exercises the epoch machinery: edge deletions
// and insertions re-execute the affected vertices against frozen
// survivors, and the final report measures conflicts on the final graph.
func TestScenarioDynamicEdges(t *testing.T) {
	g := ForestUnion(160, 3, 7)
	alg, err := ByName("arblinial-o1")
	if err != nil {
		t.Fatal(err)
	}
	// Delete a real edge, then insert a fresh one a round later — two
	// repair epochs over distinct affected regions.
	del := g.Edges()[0]
	var iu, iv int
	found := false
	for u := 0; u < g.N() && !found; u++ {
		for v := u + 1; v < g.N(); v++ {
			if g.NeighborIndex(u, v) < 0 {
				iu, iv = u, v
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("graph is complete; no edge to insert")
	}
	sc := &Scenario{Edges: []EdgeEvent{
		{Round: 2, U: int(del.U), V: int(del.V), Insert: false},
		{Round: 3, U: iu, V: iv, Insert: true},
	}}
	rep, err := alg.Run(g, Params{Arboricity: 3, Seed: 3, MaxRounds: 4096, Scenario: sc})
	if err != nil {
		t.Fatal(err)
	}
	if rep.M != g.M() {
		// One deletion and one insertion: edge count unchanged.
		t.Errorf("final graph has %d edges, want %d", rep.M, g.M())
	}
	if rep.ResidualConflicts < 0 {
		t.Error("dynamic coloring run did not measure residual conflicts")
	}
	// The repair epochs' exact accounting: which execution form the
	// epochs run must not move it.
	type pin struct {
		RoundSum, Messages                   int64
		WorstCase, Colors, ResidualConflicts int
	}
	got := pin{rep.RoundSum, rep.Messages, rep.WorstCase, rep.Colors, rep.ResidualConflicts}
	if want := (pin{493, 3776, 9, 39, 1}); got != want {
		t.Errorf("dynamic run report %+v, want %+v", got, want)
	}
}
