package vavg

import (
	gort "runtime"
	"testing"

	"vavg/internal/engine"
)

// TestStepMachineAllocsPerVertex is the allocation budget of the step
// forms built from the shared sub-machines (the partition tracker, the
// window walk, Arb-Linial and KW): a warm 2-shard step run of `ka2` and of
// `mis` allocates one struct per vertex, its bound StepFn and the
// machines' slices, not a chain of closures and escaped variables. Each
// bound sits about 20% above the measured 6.0 and 19.0 objects per
// vertex; closure-built vertices cost 30.0 and 72.8.
func TestStepMachineAllocsPerVertex(t *testing.T) {
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(2))
	cases := []struct {
		alg   string
		g     *Graph
		a     int
		bound float64 // objects per vertex
	}{
		{"ka2", Ring(4096), 2, 7},
		{"mis", ForestUnion(4096, 3, 7), 3, 22},
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
