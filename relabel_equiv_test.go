package vavg

import (
	"reflect"
	gort "runtime"
	"testing"

	"vavg/internal/engine"
	"vavg/internal/graph"
)

// TestRelabelEquivalenceRegistry is the relabeling contract (DESIGN.md
// §11): running any registered algorithm on the RCM-relabeled view of a
// graph must produce a Result byte-identical to the unrelabeled run —
// after the engine's index unmapping — in both forms at every
// GOMAXPROCS, faultless and under a drop+crash+restart scenario.
// Vertex IDs are observable in the LOCAL model (PRNG streams, ID
// tie-breaks, inbox order, adversary decisions), so this only holds
// because the view keeps every observable in original-ID space; any
// translation gap surfaces here as a diff. CI runs the suite under -race
// at GOMAXPROCS=4.
//
// The unrelabeled baseline is computed once per (algorithm, fault,
// form), so relabeled runs compare against their own form's base: form
// agreement, DNF runs included, is gated by the cross-form suites, and
// worker invariance (gated separately) covers the P axis of that base.
func TestRelabelEquivalenceRegistry(t *testing.T) {
	forest := ForestUnion(160, 3, 7)
	ring := Ring(160)
	views := map[*Graph]*Graph{
		forest: graph.Relabel(forest),
		ring:   graph.Relabel(ring),
	}
	sc := &Scenario{Drop: 0.1, CrashFrac: 0.03, CrashRound: 4, RestartAfter: 8, Seed: 9,
		Crashes: []Crash{{V: 1, Round: 2}, {V: 5, Round: 5, Restart: 9}}}
	points := []int{1, 4, 8}
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
			// GOMAXPROCS is process-global: the P axis runs sequentially.
			p := Params{Arboricity: a, Seed: 11, MaxRounds: 1 << 21}.withDefaults(g)
			forms := alg.forms(p)
			if testing.Short() {
				forms = forms[1:] // the step form only
			}
			for _, fault := range []string{"faultless", "dropcrash"} {
				opts := engine.Options{Seed: p.Seed, MaxRounds: p.MaxRounds}
				if fault == "dropcrash" {
					// The adversary is compiled in ORIGINAL vertex space and
					// shared by both runs; the engine remaps it internally
					// for the view. A budget-exhausted run is a DNF outcome
					// that must also be invariant.
					adv, err := sc.Clone().Compile(g.N(), p.Seed)
					if err != nil {
						t.Fatal(err)
					}
					opts.Adv = adv
					opts.MaxRounds = 4096
				}
				type outcome struct {
					res *engine.Result
					dnf bool
				}
				run := func(rg *Graph, f form) outcome {
					res, err := engine.RunSpec(rg, f.spec, opts)
					if res == nil {
						t.Fatalf("%s %s P=%d: %v", fault, f.name, gort.GOMAXPROCS(0), err)
					}
					res.Shards = 0 // layout provenance, excluded from equivalence
					return outcome{res, err != nil}
				}
				for _, f := range forms {
					base := run(g, f)
					for _, P := range points {
						old := gort.GOMAXPROCS(P)
						got := run(views[g], f)
						gort.GOMAXPROCS(old)
						if got.dnf != base.dnf || !reflect.DeepEqual(base.res, got.res) {
							t.Errorf("%s form=%s P=%d: relabeled Result differs from unrelabeled (dnf %v vs %v; messages %d vs %d, roundSum %d vs %d, rounds eq=%v outputs eq=%v)",
								fault, f.name, P, got.dnf, base.dnf,
								got.res.Messages, base.res.Messages,
								got.res.RoundSum, base.res.RoundSum,
								reflect.DeepEqual(base.res.Rounds, got.res.Rounds),
								reflect.DeepEqual(base.res.Output, got.res.Output))
						}
					}
				}
			}
		})
	}
}

// TestRelabelParamsReports pins the vavg façade: Params.Relabel="rcm"
// yields a Report identical to the unrelabeled run (audit included, since
// validation sees original-ID outputs), both fault-free and through the
// scenario path, and an unknown mode is a configuration error.
func TestRelabelParamsReports(t *testing.T) {
	g := ForestUnion(300, 3, 7)
	for _, name := range []string{"partition", "arblinial-o1", "mis"} {
		alg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range []*Scenario{nil, {Drop: 0.2, CrashFrac: 0.02, CrashRound: 3, RestartAfter: 5, Seed: 5}} {
			base, err := alg.Run(g, Params{Arboricity: 3, Scenario: sc})
			if err != nil {
				t.Fatalf("%s base: %v", name, err)
			}
			rel, err := alg.Run(g, Params{Arboricity: 3, Scenario: sc, Relabel: "rcm"})
			if err != nil {
				t.Fatalf("%s relabeled: %v", name, err)
			}
			// StepShards provenance aside, the reports must be identical.
			base.StepShards, rel.StepShards = 0, 0
			if !reflect.DeepEqual(base, rel) {
				t.Errorf("%s (scenario=%v): relabeled report differs:\n base %+v\n rel  %+v", name, sc != nil, base, rel)
			}
		}
	}
	alg, _ := ByName("partition")
	if _, err := alg.Run(g, Params{Relabel: "zorder"}); err == nil {
		t.Error("unknown relabel mode should fail")
	}
	// The memoized view must be dropped with its source graph.
	GraphCachePurge()
}

// TestRelabelViewCache checks the per-graph view memoization: two runs
// over the same *Graph share one view, and purging resets it.
func TestRelabelViewCache(t *testing.T) {
	g := Ring(64)
	v1, err := relabelFor(g, Params{Relabel: "rcm"})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := relabelFor(g, Params{Relabel: "rcm"})
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Error("relabeled view not memoized per graph")
	}
	if same, err := relabelFor(g, Params{}); err != nil || same != g {
		t.Errorf("off mode must return the graph itself (got %p, %v)", same, err)
	}
	GraphCachePurge()
	v3, err := relabelFor(g, Params{Relabel: "rcm"})
	if err != nil {
		t.Fatal(err)
	}
	if v3 == v1 {
		t.Error("GraphCachePurge did not drop the memoized view")
	}
}
