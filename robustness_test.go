package vavg

import (
	"errors"
	"math"
	"testing"
	"time"

	"vavg/internal/graph"
)

// awkwardGraphs are degenerate shapes every general algorithm must survive:
// a single vertex, a single edge, isolated vertices, and multiple
// components of different densities.
func awkwardGraphs() []*Graph {
	single := graph.FromEdges(1, nil)
	single.Name = "single-vertex"
	single.ArborBound = 1

	edge := graph.FromEdges(2, []Edge{{U: 0, V: 1}})
	edge.Name = "single-edge"
	edge.ArborBound = 1

	isolated := graph.FromEdges(6, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	isolated.Name = "isolated-vertices"
	isolated.ArborBound = 1

	b := graph.NewBuilder(12)
	// Component 1: triangle. Component 2: path. Vertices 7..11 isolated.
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	multi := b.Build()
	multi.Name = "multi-component"
	multi.ArborBound = 2

	return []*Graph{single, edge, isolated, multi}
}

// TestRegistryOnAwkwardGraphs runs every general algorithm (everything
// except the ring-specific references) on the degenerate shapes and
// demands validated outputs.
func TestRegistryOnAwkwardGraphs(t *testing.T) {
	for _, alg := range Algorithms() {
		if alg.RingOnly {
			continue
		}
		alg := alg
		for _, g := range awkwardGraphs() {
			g := g
			t.Run(alg.Name+"/"+g.Name, func(t *testing.T) {
				if _, err := alg.Run(g, Params{Arboricity: g.ArborBound, MaxRounds: 1 << 16}); err != nil {
					t.Errorf("%s on %s: %v", alg.Name, g.Name, err)
				}
			})
		}
	}
}

// TestRegistryOnDenseAndSkewedFamilies covers the stress families: a
// clique embedded in a forest (dense core), a hypercube (log-arboricity),
// and a random graph with only a degeneracy certificate.
func TestRegistryOnDenseAndSkewedFamilies(t *testing.T) {
	graphs := []*Graph{
		CliquePlusForest(120, 12, 3),
		Hypercube(6),
		Gnm(150, 600, 5),
	}
	names := []string{"arblinial-o1", "a2-loglog", "mis", "matching", "edgecolor", "deltaplus1-det", "aloglog-rand"}
	for _, g := range graphs {
		for _, name := range names {
			alg, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := alg.Run(g, Params{MaxRounds: 1 << 18}); err != nil {
				t.Errorf("%s on %s: %v", name, g.Name, err)
			}
		}
	}
}

// TestUnderestimatedArboricityAborts documents the failure mode of lying
// about the arboricity: with a threshold A below the graph's degeneracy,
// Procedure Partition cannot finish, so Run rejects the parameters before
// any round runs.
func TestUnderestimatedArboricityAborts(t *testing.T) {
	g := Clique(32) // arboricity 16, degeneracy 31
	alg, _ := ByName("partition")
	_, err := alg.Run(g, Params{Arboricity: 2, Eps: 0.5, MaxRounds: 2000})
	if !errors.Is(err, ErrBadParams) {
		t.Fatalf("partition with a gross arboricity underestimate: err = %v, want ErrBadParams", err)
	}
}

// ringPair returns two disjoint k-cycles: every degree is 2, yet the
// graph is not one cycle.
func ringPair(k int) *Graph {
	var edges []Edge
	for c := 0; c < 2; c++ {
		for i := 0; i < k; i++ {
			u, v := int32(c*k+i), int32(c*k+(i+1)%k)
			edges = append(edges, Edge{U: min(u, v), V: max(u, v)})
		}
	}
	g := graph.FromEdges(2*k, edges)
	g.Name = "two rings"
	return g
}

// TestBadParamsRejected checks that ε, k and C out of range, an
// arboricity whose Procedure Partition threshold A is below the graph's
// degeneracy, and a ring-only entry on a graph that is not one cycle,
// fail with ErrBadParams on every entry point, without a panic and
// without a hang (unchecked, C = -3 spins forever in a vertex boot, ε = 5
// panics while general-partition is built, an understated arboricity
// spins to the round guard, ring-3color on a forest fails only in the
// audit and leader-ring on a path panics in a vertex), and that the
// boundary values, and an understated arboricity on an entry that never
// reads it, still run.
func TestBadParamsRejected(t *testing.T) {
	g := ForestUnion(200, 2, 1)
	runOn := func(name string, g *Graph, p Params) func() error {
		return func() error {
			alg, err := ByName(name)
			if err != nil {
				return err
			}
			_, err = alg.Run(g, p)
			return err
		}
	}
	run := func(name string, p Params) func() error { return runOn(name, g, p) }
	// ListColoring and Simulate have no degraded audit, so they reject
	// any fault scenario.
	listColoringOn := func(g *Graph, p Params) func() error {
		return func() error {
			_, _, err := ListColoring(g, p, func(v int) []int { return []int{0, 1, 2, 3, 4, 5, 6, 7} })
			return err
		}
	}
	listColoring := func(p Params) func() error { return listColoringOn(g, p) }
	simulate := func(p Params) func() error {
		return func() error {
			_, err := Simulate(g, func(*API) any { return 0 }, p)
			return err
		}
	}
	ka2, _ := ByName("ka2")
	cases := []struct {
		name string
		run  func() error
		ok   bool
	}{
		{"one-plus-eta C=-3", run("one-plus-eta", Params{C: -3}), false},
		{"general-partition eps=5", run("general-partition", Params{Eps: 5}), false},
		{"mis eps=2.5", run("mis", Params{Eps: 2.5}), false},
		{"partition eps=-1", run("partition", Params{Eps: -1}), false},
		{"partition eps=NaN", run("partition", Params{Eps: math.NaN()}), false},
		{"ka2 k=1", run("ka2", Params{K: 1}), false},
		{"ka2 k=-1", run("ka2", Params{K: -1}), false},
		{"mis eps=2.5 under a scenario", run("mis", Params{Eps: 2.5, Scenario: &Scenario{Drop: 0.1}}), false},
		{"sweep ka2 k=1", func() error {
			_, err := Sweep(ka2, func(n int) *Graph { return ForestUnion(n, 2, 1) }, []int{64, 128}, nil, Params{K: 1})
			return err
		}, false},
		{"list-coloring eps=5", listColoring(Params{Eps: 5}), false},
		{"list-coloring relabel=bogus", listColoring(Params{Relabel: "bogus"}), false},
		{"list-coloring under a scenario", listColoring(Params{Scenario: &Scenario{Drop: 0.5}}), false},
		{"partition relabel=bogus", run("partition", Params{Relabel: "bogus"}), false},
		{"simulate relabel=bogus", simulate(Params{Relabel: "bogus"}), false},
		{"simulate under a scenario", simulate(Params{Scenario: &Scenario{Drop: 0.5}}), false},
		{"ring-3color on forests", run("ring-3color", Params{}), false},
		{"leader-ring on path", runOn("leader-ring", Path(200), Params{}), false},
		{"leader-ring on two rings", runOn("leader-ring", ringPair(100), Params{}), false},
		{"ring-3color on two vertices", runOn("ring-3color", Path(2), Params{}), false},
		{"sweep ring-3color on forests", func() error {
			alg, _ := ByName("ring-3color")
			_, err := Sweep(alg, func(n int) *Graph { return ForestUnion(n, 2, 1) }, []int{64}, nil, Params{})
			return err
		}, false},
		{"ring-3color under a scenario on path", runOn("ring-3color", Path(200), Params{Scenario: &Scenario{Drop: 0.1}}), false},
		{"partition a=-3", run("partition", Params{Arboricity: -3}), false},
		{"partition MaxRounds=-5", run("partition", Params{MaxRounds: -5}), false},
		{"list-coloring a=-1", listColoring(Params{Arboricity: -1}), false},
		{"simulate MaxRounds=-1", simulate(Params{MaxRounds: -1}), false},
		{"simulate eps=5", simulate(Params{Eps: 5}), false},
		// Clique(60) has degeneracy 59; ε = 2 gives A = 4a.
		{"partition a=14 on clique", runOn("partition", Clique(60), Params{Arboricity: 14, MaxRounds: 1000}), false},
		{"mis a=1 on clique", runOn("mis", Clique(200), Params{Arboricity: 1, MaxRounds: 1000}), false},
		{"list-coloring a=1 on clique", listColoringOn(Clique(60), Params{Arboricity: 1, MaxRounds: 1000}), false},
		{"partition a=15 on clique", runOn("partition", Clique(60), Params{Arboricity: 15, MaxRounds: 1000}), true},
		{"ring-3color a=1 on ring", runOn("ring-3color", Ring(200), Params{Arboricity: 1, MaxRounds: 1000}), true},
		// These entries never read a, so a = 1 on a clique still runs.
		{"general-partition a=1 on clique", runOn("general-partition", Clique(60), Params{Arboricity: 1, MaxRounds: 1000}), true},
		{"mis-luby a=1 on clique", runOn("mis-luby", Clique(60), Params{Arboricity: 1, MaxRounds: 1000}), true},
		{"deltaplus1-rand a=1 on clique", runOn("deltaplus1-rand", Clique(60), Params{Arboricity: 1, MaxRounds: 1000}), true},
		{"ring-3color on ring", runOn("ring-3color", Ring(200), Params{}), true},
		{"leader-ring on ringshuffled", runOn("leader-ring", RingShuffled(200, 3), Params{}), true},
		{"mis eps=2", run("mis", Params{Eps: 2}), true},
		{"ka2 k=2", run("ka2", Params{K: 2}), true},
		{"one-plus-eta C=1", run("one-plus-eta", Params{C: 1}), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			type outcome struct {
				err   error
				panic any
			}
			done := make(chan outcome, 1)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						done <- outcome{panic: r}
					}
				}()
				done <- outcome{err: c.run()}
			}()
			var out outcome
			select {
			case out = <-done:
			case <-time.After(time.Minute):
				t.Fatal("did not return within a minute")
			}
			switch {
			case out.panic != nil:
				t.Fatalf("panicked: %v", out.panic)
			case c.ok && out.err != nil:
				t.Fatalf("boundary value rejected: %v", out.err)
			case !c.ok && !errors.Is(out.err, ErrBadParams):
				t.Fatalf("err = %v, want ErrBadParams", out.err)
			}
		})
	}
}

// TestGeneralPartitionSurvivesUnknownArboricity contrasts the above: the
// doubling-threshold variant needs no estimate at all.
func TestGeneralPartitionSurvivesUnknownArboricity(t *testing.T) {
	g := Clique(32)
	alg, _ := ByName("general-partition")
	rep, err := alg.Run(g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WorstCase <= 0 {
		t.Fatal("no rounds recorded")
	}
}

// TestCommitReporting checks the Feuilloley-first-definition plumbing end
// to end on the leader election reference.
func TestCommitReporting(t *testing.T) {
	g := RingShuffled(128, 7)
	p := Params{Arboricity: 2, MaxRounds: 1 << 16}
	res, err := Simulate(g, mustProgram(t, "leader-ring", p), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommitAverage() >= float64(res.MaxCommit()) {
		t.Errorf("commit average %.1f not below max %d", res.CommitAverage(), res.MaxCommit())
	}
	// Vertices that never call Commit default to their termination round.
	for v, c := range res.CommitRounds {
		if c == 0 || c > res.Rounds[v] {
			t.Fatalf("vertex %d commit round %d out of range (terminated %d)", v, c, res.Rounds[v])
		}
	}
}

func mustProgram(t *testing.T, name string, p Params) Program {
	t.Helper()
	alg, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return alg.program(p.withDefaults(nil))
}
