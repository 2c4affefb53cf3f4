package vavg

import (
	"math"
	gort "runtime"
	"testing"

	"vavg/internal/engine"
)

// machineBudgets is the warm 2-shard step run budget of every registry
// entry, in objects and in heap bytes per vertex, each built from value
// machines (the partition tracker, the window walk, the decomposition,
// Arb-Linial, KW, the recolor wave, Cole-Vishkin, the Section 7.8 stage,
// the Luby-style protocol and the framework's class sweep) in its run's
// state slab. A run allocates the slab once, the machines' slices and the
// boxed outputs, not a struct and a bound StepFn per vertex, nor a chain
// of closures and escaped variables. Each object bound sits about 20%
// above the measured objects per vertex and each byte bound about 10%
// above the measured bytes; the comments give both, then what the same
// entry measured with one heap struct and one bound method value per
// vertex.
var machineBudgets = []struct {
	alg     string
	g       *Graph
	a       int
	objects float64 // objects per vertex
	bytes   float64 // heap bytes per vertex
}{
	{"ka2", Ring(4096), 2, 5, 257},                                  // 4.00, 232.8 B (6.00, 312.5 B)
	{"mis", ForestUnion(4096, 3, 7), 3, 8.5, 810},                   // 6.98, 735.8 B (8.98, 799.8 B)
	{"one-plus-eta", ForestUnion(4096, 3, 7), 3, 14, 1000},          // 11.49, 908.7 B (13.50, 1084.7 B)
	{"legal-coloring-wc", ForestUnion(4096, 3, 7), 3, 14, 1000},     // 11.49, 908.7 B (13.50, 1084.7 B)
	{"a-loglog", ForestUnion(4096, 3, 7), 3, 12.5, 1099},            // 10.38, 998.5 B (12.40, 1118.4 B)
	{"ka", ForestUnion(4096, 3, 7), 3, 12.5, 1099},                  // 10.38, 998.5 B (12.40, 1086.4 B)
	{"mis-wc", ForestUnion(4096, 3, 7), 3, 8.5, 524},                // 6.86, 475.9 B (8.90, 547.9 B)
	{"a2-loglog", ForestUnion(4096, 3, 7), 3, 5, 308},               // 3.86, 279.7 B (5.90, 351.7 B)
	{"arbcolor-wc", ForestUnion(4096, 3, 7), 3, 8.5, 513},           // 6.86, 466.3 B (8.90, 538.3 B)
	{"iterated-arblinial-wc", ForestUnion(4096, 3, 7), 3, 8.5, 513}, // 6.86, 466.3 B (8.90, 538.3 B)
	{"forest-decomp", ForestUnion(4096, 3, 7), 3, 11, 423},          // 8.91, 384.4 B (10.90, 424.4 B)
	{"forest-decomp-wc", ForestUnion(4096, 3, 7), 3, 11, 635},       // 8.91, 576.4 B (10.90, 648.4 B)
	{"arblinial-o1", ForestUnion(4096, 3, 7), 3, 8.5, 302},          // 6.85, 274.2 B (8.90, 314.2 B)
	{"arblinial-wc", ForestUnion(4096, 3, 7), 3, 8.5, 513},          // 6.86, 466.3 B (8.90, 538.3 B)
	{"edgecolor", ForestUnion(4096, 3, 7), 3, 45, 2542},             // 37.39, 2310.6 B (39.40, 2366.7 B)
	{"matching", ForestUnion(4096, 3, 7), 3, 31.5, 2008},            // 26.02, 1824.8 B (28.00, 1880.8 B)
	{"ring-3color", Ring(4096), 2, 26.5, 573},                       // 22.00, 520.5 B (24.00, 544.5 B)
	{"leader-ring", Ring(4096), 2, 25.5, 695},                       // 21.00, 631.7 B (23.00, 655.7 B)
	{"aloglog-rand", ForestUnion(4096, 3, 7), 3, 7.5, 368},          // 6.00, 334.5 B (8.00, 366.5 B)
	{"deltaplus1-det", ForestUnion(4096, 3, 7), 3, 11, 1030},        // 8.98, 935.8 B (10.98, 999.8 B)
	{"deltaplus1-rand", ForestUnion(4096, 3, 7), 3, 5, 301},         // 4.00, 273.2 B (6.00, 305.2 B)
	{"mis-luby", ForestUnion(4096, 3, 7), 3, 4, 168},                // 3.00, 152.5 B (5.00, 176.5 B)
	{"general-partition", ForestUnion(4096, 3, 7), 3, 4, 134},       // 3.00, 121.7 B (5.00, 153.7 B)
	{"partition", ForestUnion(4096, 3, 7), 3, 2.5, 127},             // 2.00, 115.4 B (4.00, 147.4 B)
}

// forEachMachineBudget checks that machineBudgets covers every registry
// entry, then hands check each entry's warm 2-shard step run, after one
// run that warms the memoized schedules and the run scratch pool.
func forEachMachineBudget(t *testing.T, check func(alg string, g *Graph, run func(), objects, bytes float64)) {
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(2))
	covered := map[string]bool{}
	for _, c := range machineBudgets {
		covered[c.alg] = true
	}
	for _, alg := range Algorithms() {
		if !covered[alg.Name] {
			t.Errorf("%s has no allocation budget", alg.Name)
		}
	}
	for _, c := range machineBudgets {
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
		run()
		check(c.alg, c.g, run, c.objects, c.bytes)
	}
}

// TestStepMachineAllocsPerVertex holds every registry entry to its object
// budget. Closure-built, the same entries allocated 130.3 (edgecolor),
// 77.0 (matching), 72.8 (mis), 71.4 (one-plus-eta), 67.4
// (legal-coloring-wc), 38.6 (a-loglog), 38.4 (ka), 36.0 (ring-3color),
// 33.0 (leader-ring), 30.0 (ka2), 28.6 (mis-wc), 25.5 (aloglog-rand), 21.6
// (iterated-arblinial-wc), 19.0 (arbcolor-wc), 17.9 (a2-loglog), 16.9
// (forest-decomp and forest-decomp-wc), 14.9 (arblinial-o1 and
// arblinial-wc), 11.0 (deltaplus1-rand), 10.0 (mis-luby), 9.4
// (general-partition) and 5.0 (partition); deltaplus1-det allocated 21.0
// with its class sweep still closure-built.
func TestStepMachineAllocsPerVertex(t *testing.T) {
	forEachMachineBudget(t, func(alg string, g *Graph, run func(), objects, _ float64) {
		perVertex := testing.AllocsPerRun(5, run) / float64(g.N())
		t.Logf("%s on %s: %.2f objects per vertex", alg, g.Name, perVertex)
		if perVertex > objects {
			t.Errorf("%s on %s: warm step run allocates %.2f objects per vertex, want at most %.1f",
				alg, g.Name, perVertex, objects)
		}
	})
}

// raceEnabled reports a build with the race detector (see race_test.go).
var raceEnabled bool

// TestStepMachineBytesPerVertex holds every registry entry to its byte
// budget: the heap bytes (runtime.MemStats.TotalAlloc) a warm run
// allocates per vertex, which is what its state costs at any n, since a
// step run keeps most of what it allocates until its last round. The
// least of three runs is taken, so that a run which finds the scratch
// pool emptied by a GC does not count its scratch. The budgets hold for
// the normal build only: under the race detector the same runs allocate
// up to 80 bytes per vertex more, since its runtime instruments
// allocation and drops sync.Pool puts at random.
func TestStepMachineBytesPerVertex(t *testing.T) {
	if raceEnabled {
		t.Skip("heap byte budgets are measured without the race detector")
	}
	forEachMachineBudget(t, func(alg string, g *Graph, run func(), _, bytes float64) {
		least := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			var before, after gort.MemStats
			gort.ReadMemStats(&before)
			run()
			gort.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		perVertex := float64(least) / float64(g.N())
		t.Logf("%s on %s: %.1f bytes per vertex", alg, g.Name, perVertex)
		if perVertex > bytes {
			t.Errorf("%s on %s: warm step run allocates %.1f bytes per vertex, want at most %.0f",
				alg, g.Name, perVertex, bytes)
		}
	})
}
