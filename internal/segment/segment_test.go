package segment

import (
	"sync"
	"testing"
	"testing/quick"

	"vavg/internal/check"
	"vavg/internal/coloring"
	"vavg/internal/engine"
	"vavg/internal/graph"
)

var families = []struct {
	g *graph.Graph
	a int
}{
	{graph.Ring(48), 2},
	{graph.Star(64), 1},
	{graph.ForestUnion(250, 3, 5), 3},
	{graph.TriangulatedGrid(9, 9), 3},
	{graph.Clique(10), 5},
}

func colorsOf(t *testing.T, res *engine.Result) []int {
	t.Helper()
	cs := make([]int, len(res.Output))
	for v, o := range res.Output {
		cs[v] = o.(int)
	}
	return cs
}

func TestPlanGeometry(t *testing.T) {
	n := 1 << 16
	// KA2's fixed C-block width, then KA's width growing with the segment.
	for _, cw := range []struct{ perSet, fixed int }{{0, 5}, {4, 2}} {
		plan := NewPlan(n, 3, 3, 2, 2, cw.perSet, cw.fixed)
		if again := NewPlan(n, 3, 3, 2, 2, cw.perSet, cw.fixed); again != plan {
			t.Error("repeat NewPlan call returned a different *Plan")
		}
		if len(plan.SegLen) != 3 {
			t.Fatalf("segments = %d", len(plan.SegLen))
		}
		// Segment lengths grow from log^(k) n toward log n (processed order).
		for s := 1; s < len(plan.SegLen); s++ {
			if plan.SegLen[s] < plan.SegLen[s-1] {
				t.Errorf("segment lengths not nondecreasing: %v", plan.SegLen)
			}
		}
		// The plan covers the partition completion bound.
		if plan.TotalHSets() < 16 {
			t.Errorf("plan covers only %d H-sets", plan.TotalHSets())
		}
		// Round geometry is consistent.
		round := 0
		for s := range plan.SegLen {
			if plan.segStart[s] != round {
				t.Errorf("segment %d starts at %d, want %d", s, plan.segStart[s], round)
			}
			if want := cw.perSet*plan.SegLen[s] + cw.fixed; plan.CWidth[s] != want {
				t.Errorf("segment %d C-block is %d rounds, want %d", s, plan.CWidth[s], want)
			}
			round += plan.SegLen[s]*plan.W + plan.CWidth[s]
		}
		// SegmentOf is the inverse of the length prefix sums.
		acc := 0
		for s, l := range plan.SegLen {
			for h := acc + 1; h <= acc+l; h++ {
				gs, lo, hi := plan.SegmentOf(h)
				if gs != s || int(lo) != acc || int(hi) != acc+l {
					t.Fatalf("SegmentOf(%d) = (%d,%d,%d), want (%d,%d,%d)", h, gs, lo, hi, s, acc, acc+l)
				}
			}
			acc += l
		}
	}
}

// TestPlanMemoConcurrent has 8 goroutines build a Plan no other test uses,
// all at once: every one must get the same *Plan.
func TestPlanMemoConcurrent(t *testing.T) {
	const workers = 8
	plans := make([]*Plan, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range plans {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			plans[w] = NewPlan(777777, 5, 3, 1.5, 9, 11, 3)
		}(w)
	}
	close(start)
	wg.Wait()
	for w, p := range plans {
		if p != plans[0] {
			t.Errorf("worker %d got its own *Plan", w)
		}
	}
}

func TestKA2ColoringProper(t *testing.T) {
	for _, c := range families {
		for _, k := range []int{2, 3} {
			res, err := engine.Run(c.g, KA2Coloring(c.a, k, 2), engine.Options{Seed: 1, MaxRounds: 1 << 20})
			if err != nil {
				t.Fatalf("%s k=%d: %v", c.g.Name, k, err)
			}
			cols := colorsOf(t, res)
			if err := check.VertexColoring(c.g, cols, KA2Palette(c.g.N(), c.a, k, 2)); err != nil {
				t.Errorf("%s k=%d: %v", c.g.Name, k, err)
			}
		}
	}
}

func TestKAColoringProper(t *testing.T) {
	for _, c := range families {
		for _, k := range []int{2, 3} {
			res, err := engine.Run(c.g, KAColoring(c.a, k, 2), engine.Options{Seed: 1, MaxRounds: 1 << 20})
			if err != nil {
				t.Fatalf("%s k=%d: %v", c.g.Name, k, err)
			}
			cols := colorsOf(t, res)
			if err := check.VertexColoring(c.g, cols, KAPalette(c.g.N(), c.a, k, 2)); err != nil {
				t.Errorf("%s k=%d: %v", c.g.Name, k, err)
			}
		}
	}
}

func TestKARhoInstances(t *testing.T) {
	// k = Rho(n): the Corollary 7.14 / 7.17 instances.
	g := graph.ForestUnion(400, 2, 7)
	k := coloring.Rho(g.N())
	res, err := engine.Run(g, KA2Coloring(2, k, 2), engine.Options{Seed: 1, MaxRounds: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.VertexColoring(g, colorsOf(t, res), KA2Palette(g.N(), 2, k, 2)); err != nil {
		t.Error(err)
	}
	res2, err := engine.Run(g, KAColoring(2, k, 2), engine.Options{Seed: 1, MaxRounds: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.VertexColoring(g, colorsOf(t, res2), KAPalette(g.N(), 2, k, 2)); err != nil {
		t.Error(err)
	}
}

func TestKA2VertexAverageShrinksWithK(t *testing.T) {
	// Larger k means a shorter first segment, hence smaller vertex-averaged
	// complexity (at the price of more colors).
	g := graph.ForestUnion(4000, 2, 11)
	var prev float64
	for i, k := range []int{2, coloring.Rho(g.N())} {
		res, err := engine.Run(g, KA2Coloring(2, k, 2), engine.Options{Seed: 1, MaxRounds: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		avg := res.VertexAverage()
		if i > 0 && avg > prev+1 {
			t.Errorf("vertex average grew with k: k=2 gave %.2f, k=rho gave %.2f", prev, avg)
		}
		prev = avg
	}
}

func TestSegmentPropertyRandomGraphs(t *testing.T) {
	f := func(seed int64, aRaw, kRaw uint8) bool {
		a := 1 + int(aRaw%3)
		k := 2 + int(kRaw%2)
		g := graph.ForestUnion(120, a, seed)
		for _, mk := range []func() engine.Program{
			func() engine.Program { return KA2Coloring(a, k, 2) },
			func() engine.Program { return KAColoring(a, k, 2) },
		} {
			res, err := engine.Run(g, mk(), engine.Options{Seed: seed, MaxRounds: 1 << 20})
			if err != nil {
				return false
			}
			cols := make([]int, g.N())
			for v, o := range res.Output {
				cols[v] = o.(int)
			}
			if check.VertexColoring(g, cols, 0) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestSegmentDeterminism(t *testing.T) {
	g := graph.ForestUnion(200, 2, 4)
	r1, err := engine.Run(g, KAColoring(2, 3, 2), engine.Options{Seed: 5, MaxRounds: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := engine.Run(g, KAColoring(2, 3, 2), engine.Options{Seed: 99, MaxRounds: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// The algorithm is deterministic: the seed must not matter.
	for v := range r1.Output {
		if r1.Output[v] != r2.Output[v] {
			t.Fatalf("deterministic algorithm diverged at vertex %d", v)
		}
	}
}
