// Fixture for the scenarioseam analyzer: fault-layer code draws
// randomness only from the scenario's seed-derived streams, and files
// holding vertex code never import the fault layer.
package fixture

import (
	"math/rand"

	exec "vavg/internal/engine"
	"vavg/internal/scenario" // want "vertex code must not import vavg/internal/scenario"
)

// sampleBad decides a fault inside fault-layer code (the *scenario.Spec
// parameter marks it) from the algorithm-side per-vertex PRNG: the fault
// pattern would change with the algorithm's own draws.
func sampleBad(s *scenario.Spec, api *exec.API) bool {
	return api.Rand().Float64() < s.Drop // want `api\.Rand\(\) in fault-layer code`
}

// sampleWorse reaches for the global source instead; the replay would
// depend on whatever else the process drew first.
func sampleWorse(s *scenario.Spec) bool {
	return rand.Float64() < s.Drop // want "global math/rand call math/rand.Float64 in fault-layer code"
}

// sampleOK decides from a hash of the scenario's seed and the vertex, as
// Compile does: a pure function of (seed, v), whatever the algorithm drew.
func sampleOK(s *scenario.Spec, v uint64) bool {
	return float64(exec.Mix64(s.Seed^v)>>11)/(1<<53) < s.Drop
}

// crashCount shows the sanctioned escape hatch for seam code with a
// reviewed reason.
func crashCount(crashes []scenario.Crash) int {
	//lint:ignore scenarioseam fixture: demonstrating an accepted suppression
	return rand.Intn(len(crashes) + 1)
}

// vertexCode is why the import above is flagged: this file declares
// algorithm-side code, so the fault layer must stay invisible to it.
func vertexCode(api *exec.API) any {
	return api.ID()
}

// frozenWrapper is seam plumbing: a vertex-code closure built inside a
// fault-layer function. The closure is algorithm-side, so its api.Rand()
// use is legal here (exec's own contracts govern it).
func frozenWrapper(s *scenario.Spec) func(api *exec.API) any {
	return func(api *exec.API) any {
		return api.Rand().Int63()
	}
}
