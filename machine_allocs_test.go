package vavg

import (
	gort "runtime"
	"testing"

	"vavg/internal/engine"
)

// TestStepMachineAllocsPerVertex is the allocation budget of the step
// forms built from value machines (the partition tracker, the window walk,
// the decomposition, Arb-Linial, KW, the recolor wave and the Section 7.8
// stage): a warm 2-shard step run allocates one struct per vertex, its
// bound StepFn and the machines' slices, not a chain of closures and
// escaped variables. Each bound sits about 20% above the measured objects
// per vertex; closure-built, the same entries allocated 30.0 (ka2), 72.8
// (mis), 71.4 (one-plus-eta), 67.4 (legal-coloring-wc), 38.6 (a-loglog),
// 38.4 (ka), 28.6 (mis-wc), 17.9 (a2-loglog), 19.0 (arbcolor-wc), 21.6
// (iterated-arblinial-wc), 16.9 (forest-decomp and forest-decomp-wc) and
// 14.9 (arblinial-o1 and arblinial-wc).
func TestStepMachineAllocsPerVertex(t *testing.T) {
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(2))
	cases := []struct {
		alg   string
		g     *Graph
		a     int
		bound float64 // objects per vertex
	}{
		{"ka2", Ring(4096), 2, 7},                                 // 6.0
		{"mis", ForestUnion(4096, 3, 7), 3, 22},                   // 19.0
		{"one-plus-eta", ForestUnion(4096, 3, 7), 3, 16},          // 13.5
		{"legal-coloring-wc", ForestUnion(4096, 3, 7), 3, 16},     // 13.5
		{"a-loglog", ForestUnion(4096, 3, 7), 3, 15},              // 12.4
		{"ka", ForestUnion(4096, 3, 7), 3, 15},                    // 12.4
		{"mis-wc", ForestUnion(4096, 3, 7), 3, 11},                // 8.9
		{"a2-loglog", ForestUnion(4096, 3, 7), 3, 7},              // 5.9
		{"arbcolor-wc", ForestUnion(4096, 3, 7), 3, 11},           // 8.9
		{"iterated-arblinial-wc", ForestUnion(4096, 3, 7), 3, 11}, // 8.9
		{"forest-decomp", ForestUnion(4096, 3, 7), 3, 13},         // 10.9
		{"forest-decomp-wc", ForestUnion(4096, 3, 7), 3, 13},      // 10.9
		{"arblinial-o1", ForestUnion(4096, 3, 7), 3, 11},          // 8.9
		{"arblinial-wc", ForestUnion(4096, 3, 7), 3, 11},          // 8.9
	}
	for _, c := range cases {
		alg, err := ByName(c.alg)
		if err != nil {
			t.Fatal(err)
		}
		p := Params{Arboricity: c.a}.withDefaults(c.g)
		run := func() {
			spec := engine.Spec{Step: alg.step(p)}
			if _, err := engine.RunSpec(c.g, spec, engine.Options{Seed: p.Seed, MaxRounds: p.MaxRounds}); err != nil {
				t.Fatalf("%s on %s: %v", c.alg, c.g.Name, err)
			}
		}
		run() // warm the memoized schedules and the run scratch pool
		perVertex := testing.AllocsPerRun(5, run) / float64(c.g.N())
		t.Logf("%s on %s: %.2f objects per vertex", c.alg, c.g.Name, perVertex)
		if perVertex > c.bound {
			t.Errorf("%s on %s: warm step run allocates %.2f objects per vertex, want at most %.1f",
				c.alg, c.g.Name, perVertex, c.bound)
		}
	}
}
