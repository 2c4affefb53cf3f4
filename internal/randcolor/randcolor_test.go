package randcolor

import (
	"reflect"
	"testing"
	"testing/quick"

	"vavg/internal/check"
	"vavg/internal/engine"
	"vavg/internal/graph"
	"vavg/internal/hpartition"
)

func colorsOf(t *testing.T, res *engine.Result) []int {
	t.Helper()
	cs := make([]int, len(res.Output))
	for v, o := range res.Output {
		cs[v] = o.(int)
	}
	return cs
}

func TestRandDeltaPlus1Proper(t *testing.T) {
	cases := []*graph.Graph{
		graph.Ring(64),
		graph.Star(80),
		graph.ForestUnion(400, 3, 5),
		graph.Clique(15),
		graph.Gnm(300, 1200, 7),
	}
	for _, g := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			res, err := engine.Run(g, DeltaPlus1(), engine.Options{Seed: seed})
			if err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
			cols := colorsOf(t, res)
			if err := check.VertexColoring(g, cols, g.MaxDegree()+1); err != nil {
				t.Errorf("%s seed=%d: %v", g.Name, seed, err)
			}
			for v := 0; v < g.N(); v++ {
				if cols[v] > g.Degree(v) {
					t.Errorf("%s: vertex %d color %d exceeds degree", g.Name, v, cols[v])
				}
			}
		}
	}
}

func TestRandDeltaPlus1VertexAveragedConstant(t *testing.T) {
	// Theorem 9.1: O(1) vertex-averaged complexity w.h.p. The expected
	// per-vertex round count is at most ~4+1; allow slack.
	for _, n := range []int{1000, 8000} {
		g := graph.Gnm(n, 4*n, int64(n))
		res, err := engine.Run(g, DeltaPlus1(), engine.Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if avg := res.VertexAverage(); avg > 8 {
			t.Errorf("n=%d: vertex-averaged %.2f, want O(1)", n, avg)
		}
	}
}

func TestALogLogProper(t *testing.T) {
	cases := []struct {
		g *graph.Graph
		a int
	}{
		{graph.Ring(64), 2},
		{graph.Star(80), 1},
		{graph.ForestUnion(400, 3, 5), 3},
		{graph.TriangulatedGrid(10, 10), 3},
		{graph.Clique(12), 6},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			res, err := engine.Run(c.g, ALogLog(c.a, 2), engine.Options{Seed: seed, MaxRounds: 1 << 20})
			if err != nil {
				t.Fatalf("%s: %v", c.g.Name, err)
			}
			cols := colorsOf(t, res)
			if err := check.VertexColoring(c.g, cols, ALogLogPalette(c.g.N(), c.a, 2)); err != nil {
				t.Errorf("%s seed=%d: %v", c.g.Name, seed, err)
			}
		}
	}
}

func TestALogLogVertexAveragedConstant(t *testing.T) {
	for _, n := range []int{2000, 16000} {
		g := graph.ForestUnion(n, 2, 21)
		res, err := engine.Run(g, ALogLog(2, 2), engine.Options{Seed: 9, MaxRounds: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if avg := res.VertexAverage(); avg > 12 {
			t.Errorf("n=%d: vertex-averaged %.2f, want O(1)", n, avg)
		}
	}
}

func TestALogLogPaletteShape(t *testing.T) {
	// O(a loglog n): doubling n many times should grow the palette only via
	// the loglog factor.
	p1 := ALogLogPalette(1<<10, 3, 2)
	p2 := ALogLogPalette(1<<20, 3, 2)
	if p2 > 2*p1 {
		t.Errorf("palette grew too fast: %d -> %d", p1, p2)
	}
}

func TestRandProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.ForestUnion(120, 2, seed)
		res, err := engine.Run(g, ALogLog(2, 1), engine.Options{Seed: seed, MaxRounds: 1 << 20})
		if err != nil {
			return false
		}
		cs := make([]int, g.N())
		for v, o := range res.Output {
			cs[v] = o.(int)
		}
		return check.VertexColoring(g, cs, 0) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestALogLogPhase2Exercised forces vertices into the second phase: on a
// deep 4-ary tree with eps=0.25 the partition peels one level per round,
// outlasting the t = 2 loglog n phase-1 budget, so the inner levels must
// color through the phase-2 wait-for-later-sets path.
func TestALogLogPhase2Exercised(t *testing.T) {
	g := graph.KaryTree(100000, 4)
	res, err := engine.Run(g, ALogLog(1, 0.25), engine.Options{Seed: 3, MaxRounds: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cols := colorsOf(t, res)
	if err := check.VertexColoring(g, cols, ALogLogPalette(g.N(), 1, 0.25)); err != nil {
		t.Fatal(err)
	}
	// Verify the run actually reached phase 2: some vertex must carry a
	// color from the shared phase-2 block.
	A := 3 // ParamA(1, 0.25)
	ell := 40
	_ = ell
	tBudget := 8 // 2*loglog(1e5) floored
	base := tBudget * (A + 1)
	reached := 0
	for _, c := range cols {
		if c >= base {
			reached++
		}
	}
	if reached == 0 {
		t.Fatal("no vertex used the phase-2 palette block; phase 2 untested")
	}
	t.Logf("phase-2 vertices: %d of %d", reached, g.N())
}

// TestALogLogStepPhase2MatchesBlocking pins ALogLogStep's phase 2, which
// the registry's cross-form suites barely reach (their forests finish the
// partition within t rounds), to the blocking ALogLog. With a = 1 and
// eps = 0.25, A = 3 and the partition peels a grid one boundary layer per
// round, so most vertices finish the partition after round t and color
// on the shared block, each refreshing its forbidden offsets before its
// first draw. Results must be equal apart from Shards.
func TestALogLogStepPhase2MatchesBlocking(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Grid(30, 30), graph.Relabel(graph.Grid(30, 30))} {
		for _, seed := range []int64{1, 2} {
			opts := engine.Options{Seed: seed, MaxRounds: 1 << 20}
			want, err := engine.Run(g, ALogLog(1, 0.25), opts)
			if err != nil {
				t.Fatalf("%s seed %d blocking: %v", g.Name, seed, err)
			}
			got, err := engine.RunSpec(g, engine.Spec{Step: ALogLogStep(1, 0.25)}, opts)
			if err != nil {
				t.Fatalf("%s seed %d step: %v", g.Name, seed, err)
			}
			got.Shards = 0
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s seed %d: step Result differs from blocking (RoundSum %d vs %d)",
					g.Name, seed, want.RoundSum, got.RoundSum)
			}
			base := phase1T(g.N(), hpartition.EllBound(g.N(), 0.25)) * 4 // A+1 = 4
			phase2 := 0
			for _, c := range colorsOf(t, got) {
				if c >= base {
					phase2++
				}
			}
			if phase2 == 0 {
				t.Fatalf("%s seed %d: no vertex colored on the phase-2 block", g.Name, seed)
			}
		}
	}
}
