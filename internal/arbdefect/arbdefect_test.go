package arbdefect

import (
	"testing"

	"vavg/internal/check"
	"vavg/internal/engine"
	"vavg/internal/graph"
)

func TestOnePlusEtaProper(t *testing.T) {
	cases := []struct {
		g *graph.Graph
		a int
	}{
		{graph.Ring(60), 2},
		{graph.Star(64), 1},
		{graph.ForestUnion(300, 3, 5), 3},
		{graph.TriangulatedGrid(9, 9), 3},
		{graph.Clique(12), 6},
		{graph.ForestUnion(200, 6, 11), 6},
	}
	for _, c := range cases {
		for _, C := range []int{3, 5} {
			res, err := engine.Run(c.g, OnePlusEta(c.a, 2, C), engine.Options{Seed: 1, MaxRounds: 1 << 20})
			if err != nil {
				t.Fatalf("%s C=%d: %v", c.g.Name, C, err)
			}
			cols := make([]int, c.g.N())
			for v, o := range res.Output {
				cols[v] = o.(int)
			}
			prm := Params{A: c.a, Eps: 2, C: C}
			if err := check.VertexColoring(c.g, cols, Palette(c.g.N(), prm)); err != nil {
				t.Errorf("%s C=%d: %v", c.g.Name, C, err)
			}
		}
	}
}

func TestPaletteIndependentOfN(t *testing.T) {
	prm := Params{A: 4, Eps: 2, C: 4}
	p1 := Palette(1000, prm)
	p2 := Palette(1<<20, prm)
	if p2 > 2*p1 {
		t.Errorf("palette grows with n: %d -> %d", p1, p2)
	}
}

func TestLevelsShrink(t *testing.T) {
	prm := Params{A: 64, Eps: 2, C: 4}
	k := prm.classK()
	if k < 5*4 {
		t.Errorf("classK = %d, want (3+eps)*C = 20", k)
	}
	if l := prm.levels(256); l < 1 || l > 3 {
		t.Errorf("levels(256) = %d, want small", l)
	}
	if l := prm.levels(3); l != 0 {
		t.Errorf("levels(3) = %d, want 0 when already below C", l)
	}
}

func TestLevelsPanicsOnSmallC(t *testing.T) {
	for _, c := range []int{0, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("levels with C=%d returned instead of panicking", c)
				}
			}()
			Params{A: 8, Eps: 2, C: c}.levels(8)
		}()
	}
}

func TestOnePlusEtaVertexAverageLogLogShape(t *testing.T) {
	// The vertex-averaged complexity must grow far slower than log n.
	var avgs []float64
	for _, n := range []int{512, 4096, 32768} {
		g := graph.ForestUnion(n, 2, 13)
		res, err := engine.Run(g, OnePlusEta(2, 2, 4), engine.Options{Seed: 1, MaxRounds: 1 << 21})
		if err != nil {
			t.Fatal(err)
		}
		avgs = append(avgs, res.VertexAverage())
	}
	// Across a 64x growth in n, loglog grows by ~30%; allow 2x.
	if avgs[2] > 2*avgs[0] {
		t.Errorf("vertex average not loglog-shaped: %v", avgs)
	}
}

func TestLegalColoringWCProperAndWorstCase(t *testing.T) {
	g := graph.ForestUnion(400, 3, 9)
	prm := Params{A: 3, Eps: 2, C: 4}
	res, err := engine.Run(g, LegalColoringWC(3, 2, 4), engine.Options{Seed: 1, MaxRounds: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]int, g.N())
	for v, o := range res.Output {
		cols[v] = o.(int)
	}
	if err := check.VertexColoring(g, cols, LegalColoringWCPalette(g.N(), prm)); err != nil {
		t.Error(err)
	}
	// Worst-case structure: no vertex finishes before the full partition.
	fast, err := engine.Run(g, OnePlusEta(3, 2, 4), engine.Options{Seed: 1, MaxRounds: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if fast.VertexAverage() >= res.VertexAverage() {
		t.Errorf("OnePlusEta (%.1f) should beat LegalColoringWC (%.1f) on vertex average",
			fast.VertexAverage(), res.VertexAverage())
	}
}
