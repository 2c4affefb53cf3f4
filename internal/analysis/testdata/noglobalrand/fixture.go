// Fixture for the noglobalrand analyzer: vertex code may use only the
// per-vertex seeded PRNG, and non-test code may never draw from the
// global math/rand source.
package fixture

import (
	"math/rand"
	"time"

	exec "vavg/internal/engine"
)

// vertexBad draws from the global source and the wall clock inside
// vertex code (the *exec.API parameter marks it).
func vertexBad(api *exec.API) any {
	if rand.Intn(2) == 0 { // want "global math/rand call"
		return time.Now() // want `time\.Now in vertex code`
	}
	return api.ID()
}

// vertexOK draws from the per-vertex PRNG.
func vertexOK(api *exec.API) any {
	return api.Rand().Int63()
}

// helperSeeded builds explicit generators — constructors never touch the
// global source and are accepted anywhere.
func helperSeeded(seed int64) int64 {
	r := rand.New(rand.NewSource(seed))
	return r.Int63()
}

// helperBad draws from the global source outside vertex code; in a
// non-test file that still breaks run-to-run reproducibility.
func helperBad() int {
	return rand.Int() // want "use a rand.New"
}

// vertexSuppressed shows the sanctioned escape hatch.
func vertexSuppressed(api *exec.API) any {
	//lint:ignore noglobalrand fixture: demonstrating an accepted suppression
	return rand.Int63()
}
