package coloring

import (
	"testing"

	"vavg/internal/check"
	"vavg/internal/engine"
	"vavg/internal/graph"
	"vavg/internal/hpartition"
)

func colorsOf(t *testing.T, res *engine.Result) []int {
	t.Helper()
	cs := make([]int, len(res.Output))
	for v, o := range res.Output {
		c, ok := o.(int)
		if !ok {
			t.Fatalf("vertex %d output %T, want int", v, o)
		}
		cs[v] = c
	}
	return cs
}

var colorFamilies = []struct {
	g *graph.Graph
	a int
}{
	{graph.Ring(60), 2},
	{graph.Star(60), 1},
	{graph.ForestUnion(300, 3, 5), 3},
	{graph.TriangulatedGrid(10, 10), 3},
	{graph.CompleteBinaryTree(127), 1},
	{graph.Clique(12), 6},
}

func TestArbLinialO1Proper(t *testing.T) {
	for _, c := range colorFamilies {
		res, err := engine.Run(c.g, ArbLinialO1(c.a, 2), engine.Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.g.Name, err)
		}
		cols := colorsOf(t, res)
		if err := check.VertexColoring(c.g, cols, ArbLinialO1Palette(c.g.N(), c.a, 2)); err != nil {
			t.Errorf("%s: %v", c.g.Name, err)
		}
	}
}

func TestArbLinialO1VertexAveragedConstant(t *testing.T) {
	for _, n := range []int{500, 2000, 8000} {
		g := graph.ForestUnion(n, 2, 9)
		res, err := engine.Run(g, ArbLinialO1(2, 2), engine.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if avg := res.VertexAverage(); avg > 4.5 {
			t.Errorf("n=%d: vertex-averaged %.2f, want O(1)", n, avg)
		}
	}
}

func TestTwoPhaseA2Proper(t *testing.T) {
	for _, c := range colorFamilies {
		res, err := engine.Run(c.g, TwoPhaseA2(c.a, 2), engine.Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.g.Name, err)
		}
		cols := colorsOf(t, res)
		if err := check.VertexColoring(c.g, cols, 2*TwoPhaseA2PhasePalette(c.g.N(), c.a, 2)); err != nil {
			t.Errorf("%s: %v", c.g.Name, err)
		}
	}
}

func TestTwoPhaseA2PaletteOrderASquared(t *testing.T) {
	// O(a^2) colors: the per-phase palette must stay bounded in n.
	for _, a := range []int{1, 3, 8} {
		A := hpartition.ParamA(a, 2)
		for _, n := range []int{1000, 100000, 1 << 22} {
			p := TwoPhaseA2PhasePalette(n, a, 2)
			if p > 64*(A+1)*(A+1) {
				t.Errorf("a=%d n=%d: phase palette %d not O(a^2)", a, n, p)
			}
		}
	}
}

func TestAColorLogLogProper(t *testing.T) {
	for _, c := range colorFamilies {
		res, err := engine.Run(c.g, AColorLogLog(c.a, 2), engine.Options{Seed: 1, MaxRounds: 1 << 20})
		if err != nil {
			t.Fatalf("%s: %v", c.g.Name, err)
		}
		cols := colorsOf(t, res)
		if err := check.VertexColoring(c.g, cols, AColorPalette(c.a, 2)); err != nil {
			t.Errorf("%s: %v", c.g.Name, err)
		}
	}
}

func TestAColorPaletteLinearInA(t *testing.T) {
	for _, a := range []int{1, 2, 4, 8} {
		if got, want := AColorPalette(a, 2), 2*(hpartition.ParamA(a, 2)+1); got != want {
			t.Errorf("AColorPalette(%d) = %d, want %d", a, got, want)
		}
	}
}

func TestDeltaPlus1OnSetStandalone(t *testing.T) {
	// Run DeltaPlus1OnSet on whole small graphs (members = all neighbors):
	// result must be a proper coloring with at most Delta+1 colors.
	for _, g := range []*graph.Graph{graph.Ring(40), graph.Clique(9), graph.TriangulatedGrid(6, 6)} {
		A := g.MaxDegree()
		prog := func(api *engine.API) any {
			members := make([]int, api.Degree())
			for k := range members {
				members[k] = k
			}
			return DeltaPlus1OnSet(api, members, A, NopSink)
		}
		res, err := engine.Run(g, prog, engine.Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		cols := colorsOf(t, res)
		if err := check.VertexColoring(g, cols, A+1); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
		// All vertices finish in the same round (lockstep subroutine).
		for v := 1; v < g.N(); v++ {
			if res.Rounds[v] != res.Rounds[0] {
				t.Fatalf("%s: lockstep violated: rounds %v", g.Name, res.Rounds[:8])
			}
		}
		if want := DeltaPlus1Rounds(g.N(), A) + 1; res.TotalRounds != want {
			t.Errorf("%s: rounds = %d, want %d", g.Name, res.TotalRounds, want)
		}
	}
}

func TestIteratedLinialStandalone(t *testing.T) {
	g := graph.ForestUnion(200, 2, 3)
	A := g.MaxDegree() // orientation by ID has out-degree <= Delta here
	prog := func(api *engine.API) any {
		var parents []int
		for k, id := range api.NeighborIDs() {
			if int(id) > api.ID() {
				parents = append(parents, k)
			}
		}
		return IteratedLinial(api, parents, A, NopSink)
	}
	res, err := engine.Run(g, prog, engine.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cols := colorsOf(t, res)
	if err := check.VertexColoring(g, cols, LinialFinalPalette(g.N(), A)); err != nil {
		t.Error(err)
	}
}

// TestTwoPhaseA2Phase2Exercised forces vertices into phase 2: a 5-ary
// tree with a=1 (threshold A=4 < internal degree 6) peels one level per
// partition round, outlasting the t = loglog n phase-1 budget, so inner
// levels must color through the phase-2 path (palette block 2).
func TestTwoPhaseA2Phase2Exercised(t *testing.T) {
	g := graph.KaryTree(100000, 5)
	res, err := engine.Run(g, TwoPhaseA2(1, 2), engine.Options{Seed: 1, MaxRounds: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cols := colorsOf(t, res)
	P := TwoPhaseA2PhasePalette(g.N(), 1, 2)
	if err := check.VertexColoring(g, cols, 2*P); err != nil {
		t.Fatal(err)
	}
	phase2 := 0
	for _, c := range cols {
		if c >= P {
			phase2++
		}
	}
	if phase2 == 0 {
		t.Fatal("no vertex colored in phase 2; the deep-tree forcing failed")
	}
	t.Logf("phase-2 vertices: %d of %d", phase2, g.N())
}

// TestAColorLogLogPhase2Exercised does the same for the Section 7.4
// algorithm: inner tree levels must recolor from the phase-2 block.
func TestAColorLogLogPhase2Exercised(t *testing.T) {
	g := graph.KaryTree(50000, 5)
	res, err := engine.Run(g, AColorLogLog(1, 2), engine.Options{Seed: 1, MaxRounds: 1 << 21})
	if err != nil {
		t.Fatal(err)
	}
	cols := colorsOf(t, res)
	if err := check.VertexColoring(g, cols, AColorPalette(1, 2)); err != nil {
		t.Fatal(err)
	}
	base := 4 + 1 // A+1 with A = ParamA(1,2) = 4
	phase2 := 0
	for _, c := range cols {
		if c >= base {
			phase2++
		}
	}
	if phase2 == 0 {
		t.Fatal("no vertex used the phase-2 palette block")
	}
	t.Logf("phase-2 vertices: %d of %d", phase2, g.N())
}
