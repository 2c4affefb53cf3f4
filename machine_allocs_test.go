package vavg

import (
	gort "runtime"
	"testing"

	"vavg/internal/engine"
)

// TestStepMachineAllocsPerVertex is the allocation budget of every
// registry entry's step form, each built from value machines (the
// partition tracker, the window walk, the decomposition, Arb-Linial, KW,
// the recolor wave, Cole-Vishkin, the Section 7.8 stage, the Luby-style
// protocol and the framework's class sweep): a warm 2-shard step run
// allocates one struct per vertex, its bound StepFn and the machines'
// slices, not a chain of closures and escaped variables. Each bound sits
// about 20% above the measured objects per vertex. Closure-built, the
// same entries allocated 130.3 (edgecolor), 77.0 (matching), 72.8 (mis),
// 71.4 (one-plus-eta), 67.4 (legal-coloring-wc), 38.6 (a-loglog), 38.4
// (ka), 36.0 (ring-3color), 33.0 (leader-ring), 30.0 (ka2), 28.6
// (mis-wc), 25.5 (aloglog-rand), 21.6 (iterated-arblinial-wc), 19.0
// (arbcolor-wc), 17.9 (a2-loglog), 16.9 (forest-decomp and
// forest-decomp-wc), 14.9 (arblinial-o1 and arblinial-wc), 11.0
// (deltaplus1-rand), 10.0 (mis-luby), 9.4 (general-partition) and 5.0
// (partition); deltaplus1-det allocated 21.0 with its class sweep still
// closure-built. Value-built, edgecolor allocated 81.3 while every serve
// round built and sorted a request map, and mis and deltaplus1-det one
// object more (10.0, 12.0) while each framework vertex made its finals
// map at boot.
func TestStepMachineAllocsPerVertex(t *testing.T) {
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(2))
	cases := []struct {
		alg   string
		g     *Graph
		a     int
		bound float64 // objects per vertex
	}{
		{"ka2", Ring(4096), 2, 7},                                 // 6.0
		{"mis", ForestUnion(4096, 3, 7), 3, 11},                   // 8.98
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
		{"edgecolor", ForestUnion(4096, 3, 7), 3, 47},             // 39.4
		{"matching", ForestUnion(4096, 3, 7), 3, 34},              // 28.0
		{"ring-3color", Ring(4096), 2, 29},                        // 24.0
		{"leader-ring", Ring(4096), 2, 28},                        // 23.0
		{"aloglog-rand", ForestUnion(4096, 3, 7), 3, 10},          // 8.0
		{"deltaplus1-det", ForestUnion(4096, 3, 7), 3, 13},        // 10.98
		{"deltaplus1-rand", ForestUnion(4096, 3, 7), 3, 7},        // 6.0
		{"mis-luby", ForestUnion(4096, 3, 7), 3, 6},               // 5.0
		{"general-partition", ForestUnion(4096, 3, 7), 3, 6},      // 5.0
		{"partition", ForestUnion(4096, 3, 7), 3, 5},              // 4.0
	}
	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.alg] = true
	}
	for _, alg := range Algorithms() {
		if !covered[alg.Name] {
			t.Errorf("%s has no allocation bound", alg.Name)
		}
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
