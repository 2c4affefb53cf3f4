package vavg

import (
	"testing"
)

// TestRegistryRunsEverythingOnCanonicalGraph is the package-level
// integration test: every registry algorithm runs and validates on a
// bounded-arboricity graph (ring algorithms on a ring).
func TestRegistryRunsEverythingOnCanonicalGraph(t *testing.T) {
	forest := ForestUnion(300, 3, 7)
	ring := Ring(64)
	for _, alg := range Algorithms() {
		g := forest
		p := Params{Arboricity: 3}
		if alg.RingOnly {
			g = ring
			p = Params{Arboricity: 2, MaxRounds: 1 << 16}
		}
		rep, err := alg.Run(g, p)
		if err != nil {
			t.Errorf("%s: %v", alg.Name, err)
			continue
		}
		if rep.VertexAvg <= 0 || rep.WorstCase <= 0 {
			t.Errorf("%s: empty report %+v", alg.Name, rep)
		}
		if rep.VertexAvg > float64(rep.WorstCase) {
			t.Errorf("%s: vertex average %.2f exceeds worst case %d", alg.Name, rep.VertexAvg, rep.WorstCase)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("mis"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestDefaultsApplied(t *testing.T) {
	g := TriangulatedGrid(8, 8) // certified arboricity 3
	alg, _ := ByName("forest-decomp")
	rep, err := alg.Run(g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arbor != 3 {
		t.Errorf("default arboricity = %d, want certified 3", rep.Arbor)
	}
}

func TestColorBudgetsReported(t *testing.T) {
	g := ForestUnion(200, 2, 3)
	for _, name := range []string{"arblinial-o1", "a2-loglog", "a-loglog", "deltaplus1-det", "aloglog-rand"} {
		alg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := alg.Run(g, Params{Arboricity: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Colors < 1 {
			t.Errorf("%s: colors not reported", name)
		}
	}
}

func TestSeedsChangeRandomizedRuns(t *testing.T) {
	g := Gnm(400, 1600, 3)
	alg, _ := ByName("deltaplus1-rand")
	r1, err := alg.Run(g, Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := alg.Run(g, Params{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r1.RoundSum == r2.RoundSum && r1.Messages == r2.Messages {
		t.Error("different seeds produced identical executions (suspicious)")
	}
	r3, err := alg.Run(g, Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r1.RoundSum != r3.RoundSum {
		t.Error("same seed must reproduce the execution")
	}
}
