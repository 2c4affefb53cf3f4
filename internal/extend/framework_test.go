package extend

import (
	"reflect"
	"slices"
	"testing"

	"vavg/internal/check"
	"vavg/internal/coloring"
	"vavg/internal/engine"
	"vavg/internal/graph"
	"vavg/internal/hpartition"
)

// TestMISFrameworkMatchesDirectImplementation pins MISStep, whose
// framework vertex drives the class sweep of misProblem itself, to the
// blocking MIS, which runs Framework's sweep through Solve.
func TestMISFrameworkMatchesDirectImplementation(t *testing.T) {
	g := graph.ForestUnion(300, 3, 5)
	opts := engine.Options{Seed: 4, MaxRounds: 1 << 20}
	direct, err := engine.Run(g, MIS(3, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	step, err := engine.RunSpec(g, engine.Spec{Step: MISStep(3, 2)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := check.MIS(g, MISSet(step.Output)); err != nil {
		t.Fatal(err)
	}
	step.Shards = 0
	if !reflect.DeepEqual(direct, step) {
		t.Errorf("step MIS differs from the blocking framework (outputs equal: %v, rounds equal: %v)",
			reflect.DeepEqual(direct.Output, step.Output), reflect.DeepEqual(direct.Rounds, step.Rounds))
	}
}

// TestFrameworkStepTurns pins the turns the framework vertex sleeps
// through, on ForestUnion(300, 3, 5) for both registry problems. A
// test-local wrapper around the bound turn method counts each turn under
// the phase it starts in. The H-set's coloring takes at most
// IteratedLinialRounds + 2·len(KW phases) turns, where an every-round
// machine takes IteratedLinialRounds + KWRounds; the class sweep takes at
// most 2 turns after the one it starts in, where an every-round sweep
// takes A+1. The Results stay the blocking forms'.
func TestFrameworkStepTurns(t *testing.T) {
	g := graph.ForestUnion(300, 3, 5)
	const a, eps = 3, 2.0
	A := hpartition.ParamA(a, eps)
	phases := coloring.KWRounds(coloring.LinialFinalPalette(g.N(), A), A) / (2 * (A + 1))
	colorMax := coloring.IteratedLinialRounds(g.N(), A) + 2*phases
	opts := engine.Options{Seed: 4, MaxRounds: 1 << 20}
	for _, c := range []struct {
		name     string
		blocking engine.Program
		p        sweepProblem
	}{
		{"mis", MIS(a, eps), misProblem{}},
		{"deltaplus1", DeltaPlus1(a, eps), listColorProblem{}},
	} {
		colorTurns := make([]int, g.N()) // by vertex ID
		sweepTurns := make([]int, g.N())
		step := func(api *engine.API) engine.StepFn {
			v := newFrameworkVertex(api, a, eps, c.p)
			turn, id := v.fn, api.ID()
			v.fn = func(api *engine.API, inbox []engine.Msg) engine.Step {
				switch v.phase {
				case fwColor:
					colorTurns[id]++
				case fwSweep:
					sweepTurns[id]++
				}
				return turn(api, inbox)
			}
			return v.fn
		}
		want, err := engine.Run(g, c.blocking, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := engine.RunSpec(g, engine.Spec{Step: step}, opts)
		if err != nil {
			t.Fatal(err)
		}
		got.Shards = 0
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: turn-counted step Result differs from blocking (RoundSum %d vs %d, Messages %d vs %d)",
				c.name, want.RoundSum, got.RoundSum, want.Messages, got.Messages)
		}
		if n := slices.Max(colorTurns); n > colorMax {
			t.Errorf("%s: a vertex took %d coloring turns, want at most %d", c.name, n, colorMax)
		}
		switch n := slices.Max(sweepTurns); {
		case n > 2:
			t.Errorf("%s: a vertex took %d sweep turns after the first, want at most 2 (sweep of %d classes)", c.name, n, A+1)
		case n == 0:
			t.Errorf("%s: no vertex took a sweep turn after the first", c.name)
		}
	}
}

// TestMISSweepReadsFinalsMadeMidSweep pins misSweep to the framework's
// finals, not to the map they held when the sweep started: the step
// framework makes the map on the first Final, which can arrive during the
// sweep. In lockstep runs no Final arrives during a sweep (earlier H-sets
// end in earlier windows, and a set's members end together), so no
// run-level suite reaches this.
func TestMISSweepReadsFinalsMadeMidSweep(t *testing.T) {
	var fin finals
	s := misProblem{}.sweep(&fin)
	fin.byIdx = map[int]any{0: true} // a neighbor's Final, as absorb records it
	s.act(nil)                       // dominated: returns before it would broadcast
	if s.output().(bool) {
		t.Error("sweep joined the MIS although a neighbor's Final reported it in")
	}
}

func TestListColoringArbitraryLists(t *testing.T) {
	g := graph.ForestUnion(250, 2, 9)
	// Shifted lists: vertex v may only use colors {v%5*10, ..., v%5*10+deg}.
	list := func(v int) []int {
		base := (v % 5) * 1000
		out := make([]int, g.Degree(v)+1)
		for i := range out {
			out[i] = base + i
		}
		return out
	}
	res, err := engine.Run(g, ListColoring(2, 2, list), engine.Options{Seed: 1, MaxRounds: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cols := Colors(res.Output)
	if err := check.VertexColoring(g, cols, 0); err != nil {
		t.Fatal(err)
	}
	// Every vertex used a color from its own list.
	for v, c := range cols {
		found := false
		for _, lc := range list(v) {
			if lc == c {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("vertex %d color %d not in its list", v, c)
		}
	}
}

func TestListColoringDegPlusOneIsDeltaPlus1(t *testing.T) {
	g := graph.StarForest(200, 10)
	list := func(v int) []int {
		out := make([]int, g.Degree(v)+1)
		for i := range out {
			out[i] = i
		}
		return out
	}
	res, err := engine.Run(g, ListColoring(2, 2, list), engine.Options{Seed: 2, MaxRounds: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.VertexColoring(g, Colors(res.Output), g.MaxDegree()+1); err != nil {
		t.Fatal(err)
	}
}

// TestListColoringStepMatchesBlocking pins ListColoringStep, the form
// vavg.ListColoring runs, to the blocking ListColoring on caller-supplied
// lists that are not a prefix of the palette: strided, offset per vertex,
// overlapping between neighbors, and reversed on odd vertices, so the
// list order (the first untaken color wins) matters too. Results must be
// equal apart from Shards, which records the step runner's layout.
func TestListColoringStepMatchesBlocking(t *testing.T) {
	graphs := []*graph.Graph{
		graph.ForestUnion(300, 3, 7),
		graph.Gnm(200, 600, 3),
		graph.Star(50),
		graph.Grid(12, 12),
	}
	for _, g := range graphs {
		list := func(v int) []int {
			out := make([]int, g.Degree(v)+1)
			for i := range out {
				out[i] = (v%4)*3 + 2*i
			}
			if v%2 == 1 {
				slices.Reverse(out)
			}
			return out
		}
		a := graph.Degeneracy(g) // an upper bound on the arboricity
		for _, seed := range []int64{1, 9} {
			opts := engine.Options{Seed: seed, MaxRounds: 1 << 20}
			want, err := engine.Run(g, ListColoring(a, 2, list), opts)
			if err != nil {
				t.Fatalf("%s seed %d blocking: %v", g.Name, seed, err)
			}
			got, err := engine.RunSpec(g, engine.Spec{Step: ListColoringStep(a, 2, list)}, opts)
			if err != nil {
				t.Fatalf("%s seed %d step: %v", g.Name, seed, err)
			}
			got.Shards = 0
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s seed %d: step Result differs from blocking (RoundSum %d vs %d, Messages %d vs %d)",
					g.Name, seed, want.RoundSum, got.RoundSum, want.Messages, got.Messages)
			}
			if err := check.VertexColoring(g, Colors(got.Output), 0); err != nil {
				t.Errorf("%s seed %d: %v", g.Name, seed, err)
			}
		}
	}
}
