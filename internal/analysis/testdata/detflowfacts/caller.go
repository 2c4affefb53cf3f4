package fixture

import exec "vavg/internal/engine"

// crossFileViolation calls into the file-ignored file: the callee's
// summary still says "order-tainted result", so the send here is flagged
// even though the callee's own file is exempt.
func crossFileViolation(api *exec.API, m map[int32]int32) {
	ks := taintedKeys(m)
	api.Broadcast(ks) // want "map-iteration-order-tainted value reaches an api.Broadcast payload"
}
