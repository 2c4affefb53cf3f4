// Fixture for the detflow analyzer: determinism taint must not reach a
// message send, adversary hashing, or a Result — including through a
// helper call, which is what the single-function analyzers cannot see.
package fixture

import (
	"sort"
	"time"

	exec "vavg/internal/engine"
)

// rawKeys returns map keys in iteration order: its summary records
// an order-tainted result, so every caller inherits the taint.
func rawKeys(m map[int32]int32) []int32 {
	var out []int32
	for k := range m {
		out = append(out, k)
	}
	return out
}

// sortedKeys is the sanctioned collect-then-sort helper: sorting clears
// the order taint, so its summary is clean.
func sortedKeys(m map[int32]int32) []int32 {
	var out []int32
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// broadcastKeys receives a tainted value FROM A CALLEE and sends it: the
// violation detorder misses through one level of indirection.
func broadcastKeys(api *exec.API, m map[int32]int32) {
	ks := rawKeys(m)
	api.Broadcast(ks) // want "map-iteration-order-tainted value reaches an api.Broadcast payload"
}

// broadcastSorted is the accepted cross-function idiom: the callee
// sanitizes before returning.
func broadcastSorted(api *exec.API, m map[int32]int32) {
	api.Broadcast(sortedKeys(m))
}

// sortAfterCollect sanitizes locally after an order-tainted call.
func sortAfterCollect(api *exec.API, m map[int32]int32) {
	ks := rawKeys(m)
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	api.Broadcast(ks)
}

// relay forwards its argument to a send: its summary marks the parameter
// as sink-forwarded, so tainted arguments are flagged at the call site.
func relay(api *exec.API, v any) {
	api.Broadcast(v)
}

// broadcastViaRelay passes a tainted value into a sink-forwarding helper.
func broadcastViaRelay(api *exec.API, m map[int32]int32) {
	ks := rawKeys(m)
	relay(api, ks) // want `reaches an api\.Broadcast payload \(forwarded by relay\)`
}

// clockToResult writes wall-clock data into a Result field: Results are
// the byte-compared observable, so the value must be run-independent.
func clockToResult(res *exec.Result) {
	res.TotalRounds = int(time.Now().UnixNano()) // want "non-PRNG-randomness-tainted value reaches Result.TotalRounds"
}

// hashTainted feeds a nondeterministic value to adversary hashing, which
// reshuffles which deliveries are dropped.
func hashTainted() uint64 {
	x := uint64(time.Now().UnixNano())
	return exec.Mix64(x) // want "non-PRNG-randomness-tainted value reaches adversary hashing"
}

// auditedException carries a reviewed suppression: the finding is
// recorded as suppressed and does not gate.
func auditedException(api *exec.API, m map[int32]int32) {
	ks := rawKeys(m)
	//lint:ignore detflow fixture-audited: order is re-canonicalized by the receiver before use
	api.Broadcast(ks)
}

// programOutput returns from a Program-shaped function: the value lands
// in Result.Output, so taint is flagged at the return.
func programOutput(m map[int32]int32) func(*exec.API) any {
	return func(api *exec.API) any {
		ks := rawKeys(m)
		return ks // want "map-iteration-order-tainted value reaches the Program output"
	}
}
