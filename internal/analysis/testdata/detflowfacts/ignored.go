// Package fixture pins the suppression/fact interaction: a file-wide
// ignore silences diagnostics IN this file without changing the facts its
// functions export, so callers elsewhere are still checked against what
// these functions actually do.
//
//lint:file-ignore detflow fixture: this file is exempt, but its functions must still export real facts
package fixture

import exec "vavg/internal/engine"

// taintedKeys is order-tainted; the file-ignore must not launder its
// summary.
func taintedKeys(m map[int32]int32) []int32 {
	var out []int32
	for k := range m {
		out = append(out, k)
	}
	return out
}

// localViolation would be a finding, but the file-ignore suppresses it —
// suppression applies at the reporting site only.
func localViolation(api *exec.API, m map[int32]int32) {
	api.Broadcast(taintedKeys(m))
}
