// Package hpartition implements Procedure Partition from Barenboim-Elkin
// (2008), the basic building block of the paper (Section 6.1): it splits
// the vertices of a graph with arboricity a into ell = O(log n) H-sets
// H_1, ..., H_ell such that every v in H_i has at most A = (2+eps)*a
// neighbors in the union of H_i, ..., H_ell.
//
// In every round, each still-active vertex with at most A active neighbors
// joins the current H-set and becomes inactive. At least an eps/(2+eps)
// fraction of active vertices joins each round (Lemma 6.1), so the number
// of active vertices decays exponentially and the vertex-averaged
// complexity is O(1) (Theorem 6.3) even though the worst case is
// Theta(log n).
//
// The package exposes the procedure in two forms: Program, the standalone
// algorithm whose per-vertex output is its H-index, and Tracker, a
// per-vertex state machine that composed algorithms (Sections 6.2-9) drive
// one partition round at a time, interleaved with their own work.
package hpartition

import (
	"math"

	"vavg/internal/engine"
	"vavg/internal/wire"
)

// ParamA returns A = ceil((2+eps)*a), the active-degree threshold of
// Procedure Partition. eps must lie in (0,2].
func ParamA(a int, eps float64) int {
	if eps <= 0 || eps > 2 {
		panic("hpartition: eps must be in (0,2]")
	}
	if a < 1 {
		a = 1
	}
	return int(math.Ceil((2 + eps) * float64(a)))
}

// Ell returns ell = floor((2/eps)*log2 n), the paper's bound on the number
// of H-sets (and partition rounds).
func Ell(n int, eps float64) int {
	if n < 2 {
		return 1
	}
	return int(math.Floor(2 / eps * math.Log2(float64(n))))
}

// EllBound returns a round count by which Procedure Partition is
// guaranteed to have assigned every vertex to an H-set: the smallest L
// with ((2+eps)/2)^L >= n, plus one round of slack (Lemma 6.1). Composed
// algorithms use it to schedule phases that must start after the
// partition completes.
func EllBound(n int, eps float64) int {
	if n < 2 {
		return 1
	}
	return int(math.Ceil(math.Log(float64(n))/math.Log((2+eps)/2))) + 1
}

// Join is the message a vertex broadcasts in the round it joins an H-set.
// Steady-state joins travel on the engine's integer fast lane as
// wire.TagJoin; the struct form only rides the terminating Final broadcast
// of standalone Program runs.
type Join struct {
	// Index is the H-set the sender joined (1-based).
	Index int32
}

// Tracker is the per-vertex state of Procedure Partition, for use inside
// larger vertex programs. The zero value is not usable; call NewTracker,
// or Init on a Tracker embedded by value in a per-vertex struct.
type Tracker struct {
	// A is the active-degree threshold.
	A int
	// HIndex is the H-set this vertex joined, or 0 while still active.
	HIndex int32
	// NbrH[k] is the H-index of the k-th neighbor, or 0 while it is active.
	NbrH []int32

	activeDeg int
	round     int32
}

// NewTracker initializes partition state for the calling vertex.
func NewTracker(api *engine.API, a int, eps float64) *Tracker {
	t := new(Tracker)
	t.Init(api, a, eps)
	return t
}

// Init (re)initializes t as the calling vertex's partition state.
func (t *Tracker) Init(api *engine.API, a int, eps float64) {
	*t = Tracker{
		A:         ParamA(a, eps),
		NbrH:      make([]int32, api.Degree()),
		activeDeg: api.Degree(),
	}
}

// Absorb processes incoming messages that are relevant to the partition:
// Join announcements and Final terminations both mark the sender inactive.
// Composed algorithms must call Absorb (or Step, which calls it) on every
// batch of received messages so that active-degree counts stay correct.
func (t *Tracker) Absorb(api *engine.API, msgs []engine.Msg) {
	for _, m := range msgs {
		var idx int32
		if x, ok := m.AsInt(); ok {
			// Fast-lane traffic: only TagJoin concerns the partition; other
			// tags are a composed algorithm's own messages.
			if wire.Tag(x) != wire.TagJoin {
				continue
			}
			idx = int32(wire.Payload(x))
		} else {
			switch d := m.Data.(type) {
			case Join:
				idx = d.Index
			case engine.Final:
				if j, ok := d.Output.(Join); ok {
					idx = j.Index
				} else {
					idx = -1 // terminated without a Join (foreign algorithm)
				}
			default:
				continue
			}
		}
		k := nbrIndex(api, m.From)
		if t.NbrH[k] == 0 {
			t.NbrH[k] = idx
			t.activeDeg--
		}
	}
}

// AbsorbUntil blocks until the vertex has completed round rounds,
// absorbing every batch it receives on the way. Blocking programs call it
// to wait for the next phase of a schedule fixed in advance.
func (t *Tracker) AbsorbUntil(api *engine.API, round int) {
	for api.Round() < round {
		t.Absorb(api, api.Next())
	}
}

func nbrIndex(api *engine.API, from int32) int {
	ids := api.NeighborIDs()
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if ids[mid] < from {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Advance executes the decision half of one partition round: if the
// vertex is eligible it joins H-set number (t.round+1), broadcasting the
// join on the integer fast lane, and Advance reports true. Step-form
// programs call it once per turn, after absorbing the turn's inbox;
// blocking callers use Step, which also crosses the engine round. It must
// not be called after the vertex has joined.
func (t *Tracker) Advance(api *engine.API) bool {
	if t.HIndex != 0 {
		panic("hpartition: partition round after joining")
	}
	t.round++
	if t.activeDeg <= t.A {
		t.HIndex = t.round
		api.BroadcastInt(wire.Pack(wire.TagJoin, int64(t.round)))
		return true
	}
	return false
}

// Step executes one round of Procedure Partition: if the vertex is
// eligible it joins H-set number (t.round+1), broadcasting the join. It
// then advances one engine round and absorbs the incoming messages. It
// returns whether the vertex joined in this round and the full message
// batch (already absorbed) for further processing by the caller. Step
// must not be called after the vertex has joined.
func (t *Tracker) Step(api *engine.API) (joined bool, msgs []engine.Msg) {
	joined = t.Advance(api)
	msgs = api.Next()
	t.Absorb(api, msgs)
	return joined, msgs
}

// Program is standalone Procedure Partition: each vertex runs partition
// rounds until it joins an H-set and terminates with its H-index (an int)
// as output. Its Join announcement is carried by the engine's Final
// broadcast, so a vertex that joins in round i terminates in round i,
// matching the paper's accounting exactly.
func Program(a int, eps float64) engine.Program {
	return func(api *engine.API) any {
		t := NewTracker(api, a, eps)
		for {
			t.round++
			if t.activeDeg <= t.A {
				// Terminating output doubles as the Join announcement.
				return Join{Index: t.round}
			}
			t.Absorb(api, api.Next())
		}
	}
}

// HIndexes extracts the per-vertex H-indices from a standalone Program run.
func HIndexes(output []any) []int {
	h := make([]int, len(output))
	for v, o := range output {
		h[v] = int(o.(Join).Index)
	}
	return h
}
