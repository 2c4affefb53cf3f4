package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Adversary is the compiled, immutable fault schedule of one run: i.i.d.
// per-delivery message drops plus per-vertex crash (and optional restart)
// rounds. It is built by internal/scenario from a (run seed, scenario
// seed) pair and shared read-only by every run of a sweep; all mutable
// cursor state lives in the run's round loop (core.drive).
//
// Determinism: every adversary decision is a pure function of immutable
// inputs — a drop is a hash of (directed-edge slot, delivery round), a
// crash window is a per-vertex pair of rounds — so the faulty execution
// is byte-identical on both runners at any worker count, exactly like a
// fault-free run.
type Adversary struct {
	// Seed drives the drop hash. It is derived from (run seed, scenario
	// seed) by the scenario compiler, never from api.Rand(): algorithm
	// randomness and fault randomness are separate streams (the
	// scenarioseam analyzer polices the split).
	Seed uint64
	// DropBar is the drop threshold: a delivery is dropped iff
	// Mix64(Seed, slot, round) < DropBar. 0 never drops; ^uint64(0)
	// drops everything.
	DropBar uint64
	// CrashAt[v] is the first round vertex v is crashed in, or 0 for
	// never. Crashed vertices neither execute nor deliver nor receive.
	// Rounds below 2 are clamped to 2 by Normalize: round 1 is the spawn
	// round and always executes on both runners.
	CrashAt []int32
	// RestartAt[v] is the round in which v reboots from a fresh init
	// (empty inbox, new PRNG incarnation), or 0 for crashed-forever.
	// Meaningful only where CrashAt[v] != 0; Normalize forces it past
	// the crash round.
	RestartAt []int32

	// crashes and restarts are the schedule as sorted (round, vertex)
	// event lists, built by Normalize; core.drive walks them with one
	// private cursor each.
	crashes  []advEvent
	restarts []advEvent
}

// advEvent is one scheduled fault, ordered by (round, vertex).
type advEvent struct {
	round int32
	v     int32
}

// Mix64 is the splitmix64 finalizer: a bijective avalanche mix used as
// the adversary's counter-based PRNG core. It is exported so
// internal/scenario can derive its decision streams from the same
// primitive without a second implementation.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Normalize validates and canonicalizes the schedule for an n-vertex
// graph and builds the event lists. It must be called once before the
// adversary is passed to a run in Options.Adv.
func (adv *Adversary) Normalize(n int) error {
	if adv.CrashAt != nil && len(adv.CrashAt) != n {
		return fmt.Errorf("engine: adversary CrashAt has length %d, want %d", len(adv.CrashAt), n)
	}
	if adv.RestartAt != nil && len(adv.RestartAt) != n {
		return fmt.Errorf("engine: adversary RestartAt has length %d, want %d", len(adv.RestartAt), n)
	}
	adv.crashes = adv.crashes[:0]
	adv.restarts = adv.restarts[:0]
	for v := range adv.CrashAt {
		r := adv.CrashAt[v]
		if r == 0 {
			if adv.RestartAt != nil && adv.RestartAt[v] != 0 {
				return fmt.Errorf("engine: adversary restarts vertex %d that never crashes", v)
			}
			continue
		}
		if r < 2 {
			// Round 1 is the spawn round: each runner starts every
			// vertex executing it before any scheduling decision, so the
			// earliest interceptable crash is round 2.
			r = 2
			adv.CrashAt[v] = r
		}
		adv.crashes = append(adv.crashes, advEvent{round: r, v: int32(v)})
		if adv.RestartAt == nil || adv.RestartAt[v] == 0 {
			continue
		}
		if adv.RestartAt[v] <= r {
			adv.RestartAt[v] = r + 1
		}
		adv.restarts = append(adv.restarts, advEvent{round: adv.RestartAt[v], v: int32(v)})
	}
	sortEvents(adv.crashes)
	sortEvents(adv.restarts)
	return nil
}

// permuted returns a copy of adv with its vertex-keyed schedule remapped
// into a relabeled view's ID space (newID[old] = new): crash and restart
// rounds move with their vertices and the event lists are rebuilt in
// new-ID order. Seed and DropBar are copied unchanged — the drop hash
// stays keyed by ORIGINAL slot indices, which the message path feeds it
// via core.dropSlot. The receiver, shared read-only across a sweep, is
// never mutated.
func (adv *Adversary) permuted(newID []int32) *Adversary {
	p := &Adversary{Seed: adv.Seed, DropBar: adv.DropBar}
	if adv.CrashAt != nil {
		p.CrashAt = make([]int32, len(adv.CrashAt))
		for old, r := range adv.CrashAt {
			p.CrashAt[newID[old]] = r
		}
	}
	if adv.RestartAt != nil {
		p.RestartAt = make([]int32, len(adv.RestartAt))
		for old, r := range adv.RestartAt {
			p.RestartAt[newID[old]] = r
		}
	}
	if err := p.Normalize(len(newID)); err != nil {
		// The source schedule was normalized for this same n; a pure
		// remap cannot introduce a validation failure.
		panic(err)
	}
	return p
}

// sortEvents orders events by (round, vertex). A list holds at most one
// event per vertex, so the keys are unique and the order does not depend
// on the sort's stability.
func sortEvents(s []advEvent) {
	slices.SortFunc(s, func(a, b advEvent) int {
		return cmp.Or(cmp.Compare(a.round, b.round), cmp.Compare(a.v, b.v))
	})
}

// dropped reports whether the delivery into directed-edge slot in round
// dr is removed by the random-loss process. The decision is a pure hash
// of (seed, slot, round): re-sends to the same slot in the same round
// (broadcast overwrites) see the same verdict, and no runner state is
// involved.
func (adv *Adversary) dropped(slot int32, dr int32) bool {
	if adv.DropBar == 0 {
		return false
	}
	return Mix64(adv.Seed^(uint64(uint32(slot))|uint64(uint32(dr))<<32)) < adv.DropBar
}

// inWindow reports whether vertex v is inside its crash outage for
// delivery round dr: deliveries to or from v are killed from the crash
// round through the restart round inclusive (a restarted vertex boots
// with an empty inbox, like round 1).
func (adv *Adversary) inWindow(v int32, dr int32) bool {
	if adv.CrashAt == nil {
		return false
	}
	c := adv.CrashAt[v]
	if c == 0 || dr < c {
		return false
	}
	if adv.RestartAt == nil || adv.RestartAt[v] == 0 {
		return true
	}
	return dr <= adv.RestartAt[v]
}

// eventCursor walks a sorted event list.
type eventCursor struct {
	events []advEvent
	i      int
}

// take returns the events scheduled for round w, advancing the cursor.
func (c *eventCursor) take(w int32) []advEvent {
	lo := c.i
	for c.i < len(c.events) && c.events[c.i].round <= w {
		c.i++
	}
	return c.events[lo:c.i]
}

// nextRound returns the round of the next unconsumed event, or MaxInt.
func (c *eventCursor) nextRound() int {
	if c.i >= len(c.events) {
		return math.MaxInt
	}
	return int(c.events[c.i].round)
}

// pending reports whether unconsumed events remain.
func (c *eventCursor) pending() bool { return c.i < len(c.events) }

// crashSentinel is the panic payload a vertex goroutine uses to unwind
// when its crash round arrives; runVertex's recover recognizes it and
// retires the vertex without recording a failure.
type crashSentinel struct{}
