package engine

import (
	"fmt"
	"math"
	gort "runtime"
	"slices"
	"sync"
	"unsafe"

	"vavg/internal/graph"
)

// The step runner runs vertices as explicit per-round state machines
// instead of blocking goroutine Programs: no per-vertex goroutine, no
// stack, no park/wake synchronization. A vertex is a StepFn — one turn of
// work — stored in a flat per-shard array and invoked in ascending vertex
// order by the shard's driver every round the vertex is due. Terminated
// vertices are compacted out of the shard's active list, and sleeping
// vertices (the step form of API.Idle) sit in a timer heap, so per-round
// cost is O(active vertices + delivered messages), not O(n).
//
// The step form expresses the same executions as the blocking form, turn
// by turn: a blocking Program is a sequence of code blocks separated by
// Next/Idle calls, and its step translation returns each block as one
// StepFn whose Step verdict (Continue / Sleep / Done) stands in for the
// blocking call that ended the block. Because all observable run state
// (PRNG streams, inbox order, round and message accounting) is keyed by
// (vertex, round) exactly as on the goroutine runner, a faithful
// translation produces byte-identical Results — the equivalence suites
// enforce this for every registered algorithm.
//
// Vertices are split into one contiguous shard per worker (worker w drives
// shard w). Multicore execution splits each round into two
// barrier-separated phases, both free of locks and atomics but three: each
// Send, SendInt, Broadcast or BroadcastInt passes the sync.Once that
// sizes its lane's payload column (see column), a sleeper's first drain
// the one that sizes the inbox slab (core.inboxWindow), and each State
// call the one that makes the state slab, atomic loads that take their
// lock only on the run's first such call:
//
//	exec:  each worker runs its shard's due turns. Every delivery writes
//	       its slab slot directly: the slot's only writer is the sender,
//	       and the receiver reads it only after the round barrier. From
//	       the run's first sleep round on (see stepRuntime.noting),
//	       same-shard deliveries also write the wake bookkeeping (the
//	       worker owns that state); cross-shard deliveries append the
//	       receiver's ID to the (source shard, destination shard) staging
//	       lane — a flat buffer, sized from the cut when the run first
//	       notes, that only this worker writes this phase.
//	merge: each worker drains the lanes addressed to its shard, noting
//	       each staged receiver's wake single-threaded, iterating source
//	       shards in ascending order; in the run's first sleep round it
//	       polls its shard's new sleepers for mail instead.
//
// A slot is written in program order by its one sender, so last-write-
// wins slot semantics hold exactly; a receiver is staged once per slot and
// round, on the slot's first write, and lane entries are appended in
// ascending sender order (turns run in vertex order), so the merge notes
// wakes in (source shard, sender vertex, first write) order. Results are
// therefore byte-identical at any worker count — and at any shard count,
// since every observable is keyed by (vertex, round), never by shard
// layout.

// StepFn is one turn of a step-form vertex program: it receives the
// messages delivered since its last turn (ordered by neighbor index;
// accumulated across the whole window after a Sleep) and returns a Step
// verdict saying how the vertex proceeds. The inbox slice is valid for
// this turn only: the runner reuses its memory for the next turn of this
// or another vertex, so retaining messages requires copying, as with
// API.Next. A StepFn must not call API.Next or API.Idle; rounds are
// crossed by returning.
type StepFn func(api *API, inbox []Msg) Step

// StepProgram builds a vertex's state machine: it is called once per
// vertex incarnation, in the turn of its first round, and returns the
// StepFn for that turn (invoked at once with an empty inbox). Per-vertex
// state lives in one struct carved from the run's state slab (see State)
// and reset by the builder, and every turn runs through one package-level
// StepFn that looks the struct up, so neither building nor turning
// allocates a closure; the API handle stays valid for the whole run.
type StepProgram func(api *API) StepFn

// State returns the M of api's vertex in its run's state slab, a []M of
// N() values indexed by engine vertex, so that the slab's memory order is
// the run's turn order, on a relabeled view too. The run's first call
// makes the slab, whichever shard worker makes it; the run owns it, so a
// Spec reused by several runs, one after another or at once, never shares
// vertex state between them, and the slab is freed with the run. An M
// starts zeroed, but an adversary restart hands the new incarnation its
// crashed predecessor's M, so a builder resets the whole value. Every
// vertex of a run must ask for the same M: a second type panics, naming
// both.
func State[M any](api *API) *M {
	c := api.core
	c.statesOnce.Do(func() { c.states = make([]M, c.g.N()) })
	s, ok := c.states.([]M)
	if !ok {
		panic(fmt.Sprintf("engine: vertex state %T asked of a run whose state slab is %T", s, c.states))
	}
	return &s[api.v]
}

// Step is the verdict a StepFn returns for one turn.
type Step struct {
	next  StepFn
	out   any
	sleep int32
	done  bool
}

// Continue ends the turn; next runs in the following round with the
// messages delivered this round. It is the step form of API.Next.
func Continue(next StepFn) Step {
	if next == nil {
		panic("engine: Continue with nil StepFn")
	}
	return Step{next: next, sleep: 1}
}

// Sleep ends the turn and parks the vertex for k counted rounds: next
// runs k rounds later with every message delivered in between (in arrival
// order). It is the step form of API.Idle(k): the vertex stays live and
// pays the rounds, but costs no scheduler work while parked. k must be at
// least 1; Sleep(1, next) is Continue(next). Callers translating an
// Idle(k) with k possibly 0 must branch: a zero-round idle does not end
// the turn.
func Sleep(k int, next StepFn) Step {
	if k < 1 {
		panic("engine: Sleep window must be >= 1 rounds")
	}
	if next == nil {
		panic("engine: Sleep with nil StepFn")
	}
	return Step{next: next, sleep: int32(k)}
}

// Done ends the turn and terminates the vertex with the given output,
// which is broadcast to its neighbors as the Final payload of this same
// round — exactly the accounting of a blocking Program returning.
func Done(output any) Step {
	return Step{done: true, out: output}
}

// idleEntry is a (round, vertex) event: a sleep expiry or a message wake.
type idleEntry struct {
	round int32
	v     int32
}

// heapPush / heapPop maintain a binary min-heap of idleEntry by round.
func heapPush(h *[]idleEntry, e idleEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].round <= s[i].round {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func heapPop(h *[]idleEntry) idleEntry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(s) && s[l].round < s[min].round {
			min = l
		}
		if r < len(s) && s[r].round < s[min].round {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// cacheLine is the assumed coherence-granule size. 64 bytes covers every
// target this repo runs on (x86-64, arm64 with 64-byte lines; 128-byte-
// line arm64 parts simply get two-line padding granularity).
const cacheLine = 64

// laneHeaderPad rounds the lane header (one slice: 3 pointer-sized words)
// up to the next cache-line boundary.
const laneHeaderPad = cacheLine - (3*unsafe.Sizeof(uintptr(0)))%cacheLine

// lane is one (source shard, destination shard) staging buffer of
// receiver IDs, padded so no two lane headers share a cache line. The
// sender writes the slab slot itself; the lane only tells the destination
// shard's merge whose wake bookkeeping to update. buf is a window of the
// run's lane slab with room for every cut edge from src to dst, carved
// when the run first notes deliveries (see carveLanes); a receiver is
// staged at most once per slot and round, so a round never outgrows the
// window and never allocates.
// The header's len field is an append cursor bumped on every cross-shard
// delivery of the exec phase; lanes[src*nshards+dst] lays a worker's row
// of cursors contiguously, so without padding worker A appending to its
// lane would false-share the line with worker B reading or appending to
// an adjacent one — measured by BenchmarkLaneFalseSharing. The contract:
// the size stays an exact cache-line multiple (the assertion below fails
// the build otherwise); no sync or sync/atomic fields, since lanes are
// single-writer per phase and a lock or atomic in the header brings back
// the shared-line traffic the padding removes; and no exported fields, so
// no writer outside this package, which cannot see that phase-ownership
// argument, touches a cursor.
type lane struct {
	buf []int32
	_   [laneHeaderPad]byte
}

// Compile-time assertion that lane is an exact cache-line multiple: the
// constant goes negative — a compile error for uintptr — if padding ever
// drifts (e.g. a field is added without re-padding).
const _ uintptr = -(unsafe.Sizeof(lane{}) % cacheLine)

// stepShard owns a contiguous vertex range [lo, hi). The seam contract
// (enforced by the shardseam analyzer): fields are written only by the
// shard's own methods — the exec and merge phases run them from the
// shard's worker, and the coordinator between rounds — never
// concurrently, so the shard needs no mutex and no atomics anywhere.
//
//vavg:shardstate
type stepShard struct {
	idx    int32
	lo, hi int32
	// fns[v-lo] is v's next turn.
	fns []StepFn
	// active lists, in ascending order, the live vertices that take a turn
	// every round. Terminated and sleeping vertices are compacted out.
	active []int32
	// woken and runBuf are per-round scratch: expired sleepers and the
	// merged turn order. Once merged, woken is dead, so until the run notes
	// deliveries its window lists the round's new sleepers instead, for
	// pollSleepers.
	woken  []int32
	runBuf []int32
	// inbox is the turn inbox: each due vertex's mail is collected into it
	// just before the vertex's turn, so it holds one turn's mail at a time
	// and its capacity, the shard's largest degree, bounds every collect.
	inbox []Msg
	// wakeAt[v-lo] is the round of v's next scheduled turn while sleeping,
	// or 0 if v is active (or done).
	wakeAt []int32
	// timers is a min-heap of (wake round, vertex) sleep expiries.
	timers []idleEntry
	// pending lists the receivers of messages delivered for the coming
	// round, at most once each thanks to msgRound, from the run's first
	// sleep round on (see stepRuntime.noting). Same-shard deliveries append
	// during the exec phase, cross-shard ones and the first sleep round's
	// polled sleepers during the merge phase. The round loop never skips a
	// round with a pending entry, so the next round's drain takes them all.
	pending []int32
	// msgRound[v-lo] is the latest delivery round already enqueued in
	// pending for v.
	msgRound []int32
	// unsorted marks an active list that reboots appended to out of order;
	// the next round sorts it before the turn merge.
	unsorted bool
	// live counts non-terminated vertices in the shard.
	live int
	// bootProg builds each vertex's machine in its first turn.
	bootProg StepProgram
}

type stepRuntime struct {
	c         *core
	apis      []API
	shards    []*stepShard
	shardSize int32
	// lanes[src*len(shards)+dst] stages the receivers of the cross-shard
	// deliveries sent from shard src to shard dst this round. During the
	// exec phase lane (src, *) is written only by the worker running shard
	// src; during the merge phase lane (*, dst) is read and truncated only
	// by the worker merging shard dst. Headers are cache-line padded (see
	// lane). Nil on single-shard runs and until the run notes deliveries.
	lanes []lane
	// round is the current global round, written by the coordinator at the
	// barrier and read by workers during the phases.
	round int32
	// noting says whether deliveries are noted. It is off until the end of
	// the run's first round in which some vertex sleeps: until then every
	// live vertex is active at the start of each round and collects its own
	// mail, so a delivery can need a drain only if its receiver falls
	// asleep in the delivery's own round, and pollSleepers finds those
	// receivers at the end of that round. The coordinator turns it on
	// between rounds and it stays on for the rest of the run.
	noting bool
	// starts holds one channel per worker of a multi-shard run, through
	// which turns releases each phase, and phaseWG is the barrier that ends
	// it; stop closes the channels. A single shard runs inline with no
	// workers, so both stay empty.
	starts  []chan uint8
	phaseWG sync.WaitGroup
}

func (rt *stepRuntime) shardOf(v int32) *stepShard { return rt.shards[v/rt.shardSize] }

// delivered notes one delivery to recv, whose slab slot the sender has
// already written (see API.put), once the run notes deliveries (see
// noting); before that it returns at once. Same-shard receivers get their
// wake bookkeeping updated directly (the calling worker owns it);
// cross-shard ones are staged in the source→destination lane for the
// round-barrier merge. No locks, no atomics, on either path.
//
//vavg:hotpath
func (rt *stepRuntime) delivered(a *API, recv int32) {
	if !rt.noting {
		return
	}
	d := recv / rt.shardSize
	if src := a.v / rt.shardSize; src != d {
		l := &rt.lanes[src*int32(len(rt.shards))+d]
		l.buf = append(l.buf, recv)
		return
	}
	rt.shards[d].noteDelivery(recv, rt.round+1)
}

// noteDelivery marks receiver recv as having a message deliverable in
// round t so a sleeping receiver collects it in time (collect accepts only
// the previous round's tags, so an undrained delivery would be lost).
// Deduplicated to one pending entry per (recv, t); entries for receivers
// that turn out to be active or terminated are dropped at drain time.
// Callers must own the shard for the current phase.
//
//vavg:hotpath
func (s *stepShard) noteDelivery(recv, t int32) {
	i := recv - s.lo
	if s.msgRound[i] >= t {
		return
	}
	s.msgRound[i] = t
	s.pending = append(s.pending, recv)
}

// applyLanes is the merge phase for this destination shard: one
// wake-bookkeeping sweep over the lanes addressed to it, in ascending
// source-shard order and append (sender, slot) order within each lane, so
// the pending list's arrival order is deterministic. The slab writes
// already happened in the exec phase; the lanes hold receiver IDs only.
//
//vavg:shardmerge
func (s *stepShard) applyLanes(rt *stepRuntime) {
	t := rt.round + 1
	nsh := int32(len(rt.shards))
	for src := int32(0); src < nsh; src++ {
		l := &rt.lanes[src*nsh+s.idx]
		for _, recv := range l.buf {
			s.noteDelivery(recv, t)
		}
		l.buf = l.buf[:0]
	}
}

// pollSleepers notes, at the end of the run's first sleep round, each of
// the round's new sleepers that some neighbor sent mail in this round:
// the mail that round's deliveries did not note. It reads the send side,
// before the barrier's swap, and skips a removed delivery's stamped-empty
// tag, which put never announces either. It runs once every turn of the
// round is taken: in the merge phase on several shards, right after
// runRound on one.
func (s *stepShard) pollSleepers(rt *stepRuntime) {
	c, g, w := rt.c, rt.c.g, rt.round
	stamp := roundTag(w)
	for _, v := range s.woken {
		for q := g.Off[v]; q < g.Off[v+1]; q++ {
			if c.sendStamp[g.Adj[q]] != w {
				continue
			}
			if t := c.sendTags[g.Rev[q]]; t&^tagKindMask == stamp && t != stamp {
				s.noteDelivery(v, w+1)
				break
			}
		}
	}
}

// carveLanes gives every (source, destination) shard pair a lane window of
// the run scratch's lane slab with capacity for its cut edges, counted in
// one O(m) pass, when a multi-shard run first notes deliveries; a run in
// which no vertex sleeps never carves them. A round stages each receiver
// at most once per directed edge (rewrites of a slot are not staged
// again), so a lane never outgrows its window; the three-index carve would
// send any overflow to the heap, never into the neighboring lane.
func (rt *stepRuntime) carveLanes() {
	nsh := int32(len(rt.shards))
	g := rt.c.g
	cut := make([]int, nsh*nsh)
	total := 0
	for _, sh := range rt.shards {
		row := cut[sh.idx*nsh : (sh.idx+1)*nsh]
		for _, recv := range g.Adj[g.Off[sh.lo]:g.Off[sh.hi]] {
			if recv < sh.lo || recv >= sh.hi {
				row[recv/rt.shardSize]++
				total++
			}
		}
	}
	s := rt.c.scratch
	s.lanes = reslice(s.lanes, len(cut))
	s.laneSlab = reslice(s.laneSlab, total)
	off := 0
	for i, k := range cut {
		s.lanes[i].buf = s.laneSlab[off : off : off+k]
		off += k
	}
	rt.lanes = s.lanes
}

// intsPerVertex is the number of int32 elements a shard carves per vertex
// from the run scratch's shard slab: active, woken, runBuf, wakeAt,
// msgRound and pending (see carve).
const intsPerVertex = 6

// carve gives the shard its per-run lists as windows of the run scratch's
// zeroed shard slabs, one window of k = hi-lo elements per list, so a run
// makes none of them and grows none by append. k bounds every list:
// active, woken and runBuf hold each shard vertex at most once a round;
// pending holds at most one entry per vertex between drains, since
// msgRound dedupes it per delivery round and the round loop never skips a
// round with a pending entry; timers holds one live entry per sleeper,
// plus a stale one per crashed sleeper, an excess the three-index carve
// spills to the heap rather than into the next window. The active list
// starts as the whole range [lo, hi), so the first round boots every
// vertex in ascending order. The turn inbox is the head of msgs, the
// unused tail of the run scratch's message slab, with capacity for the
// shard's largest degree, since a round delivers at most one message per
// neighbor; carve returns the rest of msgs.
func (s *stepShard) carve(sc *runScratch, g *graph.Graph, msgs []Msg) []Msg {
	k := s.hi - s.lo
	ints := sc.shardInts[intsPerVertex*s.lo : intsPerVertex*s.hi]
	s.active, s.woken, s.runBuf = ints[:k:k], ints[k:k:2*k], ints[2*k:2*k:3*k]
	s.wakeAt, s.msgRound, s.pending = ints[3*k:4*k:4*k], ints[4*k:5*k:5*k], ints[5*k:5*k:6*k]
	for i := range s.active {
		s.active[i] = s.lo + int32(i)
	}
	s.timers = sc.shardTimers[s.lo:s.lo:s.hi]
	d := s.maxDegree(g)
	s.inbox = msgs[:0:d]
	return msgs[d:]
}

// maxDegree returns the largest degree of the shard's vertices.
func (s *stepShard) maxDegree(g *graph.Graph) int {
	d := int32(0)
	for v := s.lo; v < s.hi; v++ {
		d = max(d, g.Off[v+1]-g.Off[v])
	}
	return int(d)
}

// next and idle are the blocking round-crossing calls; step programs
// cross rounds by returning a Step verdict instead.
func (rt *stepRuntime) next(*API, []Msg) []Msg {
	panic("engine: step program called API.Next; return Continue instead")
}

func (rt *stepRuntime) idle(*API, int, []Msg) []Msg {
	panic("engine: step program called API.Idle; return Sleep instead")
}

// boot builds v's state machine and runs its first turn (round 1, empty
// inbox), converting a panic into the vertex's recorded failure.
func (rt *stepRuntime) boot(a *API, prog StepProgram) (st Step, ok bool) {
	defer rt.trap(a, &ok)
	fn := prog(a)
	if fn == nil {
		panic("engine: step program returned nil StepFn")
	}
	return fn(a, nil), true
}

// turn runs one scheduled turn of v's machine on inbox.
func (rt *stepRuntime) turn(a *API, fn StepFn, inbox []Msg) (st Step, ok bool) {
	defer rt.trap(a, &ok)
	return fn(a, inbox), true
}

func (rt *stepRuntime) trap(a *API, ok *bool) {
	if p := recover(); p != nil {
		rt.c.recordPanic(a.v, p, a.round+1)
		rt.c.done[a.v] = true
		*ok = false
	}
}

// runRound takes every due turn in the shard for global round w: expired
// sleepers rejoin, sleeping receivers of this round's deliveries drain
// their slots, and the due vertices run in ascending order, each
// collecting its inbox just before its turn. Vertices are stepped with
// api.round = w-1, matching where a blocking Program stands while
// executing round w.
func (s *stepShard) runRound(rt *stepRuntime, w int32) {
	c := rt.c
	apis := rt.apis
	if s.unsorted {
		slices.Sort(s.active)
		s.unsorted = false
	}
	// Wake sleepers whose window ends this round; their turn collects the
	// final round of the window below.
	s.woken = s.woken[:0]
	for len(s.timers) > 0 && s.timers[0].round <= w {
		e := heapPop(&s.timers)
		li := e.v - s.lo
		if s.wakeAt[li] == e.round {
			s.wakeAt[li] = 0
			s.woken = append(s.woken, e.v)
		}
	}
	// Mass wakes are normal (a whole segment's window expiring at once
	// wakes O(n) sleepers in one round), so this must be a real sort: an
	// insertion sort would be quadratic here.
	slices.Sort(s.woken)
	// Drain this round's deliveries into still-sleeping receivers'
	// persistent windows, so a later wake sees the same accumulated
	// sequence a blocking Idle builds. Entries for active, waking, or
	// terminated receivers are dropped: those vertices collect for
	// themselves, or never will. No lock: pending is written only by this
	// shard's owner during the exec phase and its merger during the merge
	// phase, and this drain is the exec phase's first touch.
	for _, v := range s.pending {
		if s.wakeAt[v-s.lo] > w {
			a := &apis[v]
			a.inbox = a.collect(a.window(), w-1)
		}
	}
	s.pending = s.pending[:0]
	// Merge the compacted active list with this round's woken sleepers into
	// the turn order.
	s.runBuf = s.runBuf[:0]
	ai, wi := 0, 0
	for ai < len(s.active) || wi < len(s.woken) {
		if wi >= len(s.woken) || (ai < len(s.active) && s.active[ai] < s.woken[wi]) {
			s.runBuf = append(s.runBuf, s.active[ai])
			ai++
		} else {
			s.runBuf = append(s.runBuf, s.woken[wi])
			wi++
		}
	}
	s.woken = s.woken[:0]
	// Take the turns in ascending vertex order, rebuilding the active list
	// with the survivors.
	s.active = s.active[:0]
	for _, v := range s.runBuf {
		if c.done[v] {
			// Crashed at the top of this round; its turn is forfeit.
			continue
		}
		li := v - s.lo
		a := &apis[v]
		var st Step
		var ok bool
		if s.fns[li] == nil {
			// No machine yet: the first turn, or an adversary restart's
			// fresh incarnation, whose fresh handle re-seeds its PRNG stream
			// from its generation on its first Rand.
			c.initAPI(a, v, w-1)
			st, ok = rt.boot(a, s.bootProg)
		} else {
			a.round = w - 1
			// Collect just before the turn, into the shard's turn inbox,
			// unless v is a woken sleeper whose drains gathered mail in its
			// window: its wake round's mail goes after that mail. Either way
			// the window is empty again after the turn.
			var inbox []Msg
			if len(a.inbox) > 0 {
				a.inbox = a.collect(a.inbox, w-1)
				inbox = a.inbox
			} else {
				inbox = a.collect(s.inbox[:0], w-1)
			}
			st, ok = rt.turn(a, s.fns[li], inbox)
			a.inbox = a.inbox[:0]
		}
		if !ok {
			s.live--
			continue
		}
		switch {
		case st.done:
			// The exact final-round sequence of runVertex: broadcast the
			// output, terminate.
			a.final(st.out)
			a.round++
			c.rounds[v] = a.round
			c.output[v] = st.out
			c.done[v] = true
			s.live--
		case st.sleep > 1:
			a.round++
			c.rounds[v] = a.round
			s.fns[li] = st.next
			e := w + st.sleep
			s.wakeAt[li] = e
			heapPush(&s.timers, idleEntry{e, v})
			if !rt.noting {
				s.woken = append(s.woken, v)
			}
		default:
			a.round++
			c.rounds[v] = a.round
			s.fns[li] = st.next
			s.active = append(s.active, v)
		}
	}
}

// crash retires the vertex of handle a, which drive has marked crashed, at
// the top of its crash round: clearing wakeAt invalidates a sleeper's
// timer entry and makes the pending drain skip it, and clearing fns marks
// the slot for a fresh boot on restart. Called by the coordinator between
// rounds.
func (s *stepShard) crash(a *API) {
	li := a.v - s.lo
	s.wakeAt[li] = 0
	s.fns[li] = nil
	a.inbox = a.inbox[:0]
	s.live--
}

// reboot re-arms crashed vertex v for its restart round: its machine slot
// was cleared at crash time, so its next turn boots a fresh incarnation.
// Called by the coordinator between rounds.
func (s *stepShard) reboot(v int32) {
	if k := len(s.active); k > 0 && s.active[k-1] > v {
		s.unsorted = true
	}
	s.active = append(s.active, v)
	s.live++
}

func (rt *stepRuntime) crash(v int32)     { rt.shardOf(v).crash(&rt.apis[v]) }
func (rt *stepRuntime) reboot(v, _ int32) { rt.shardOf(v).reboot(v) }

// nextTurn returns the earliest round after cur in which any vertex takes
// a turn: cur+1 if some shard has active vertices or pending message
// wakes, otherwise the earliest sleep expiry, or math.MaxInt when no
// vertex is scheduled.
func (rt *stepRuntime) nextTurn(cur int) int {
	next := math.MaxInt
	for _, s := range rt.shards {
		if len(s.active) > 0 || len(s.pending) > 0 {
			return cur + 1
		}
		if len(s.timers) > 0 {
			next = min(next, int(s.timers[0].round))
		}
	}
	return next
}

// Worker phase tokens: one full round is exec (turns) then merge (lane
// application), each ending in a barrier.
const (
	phaseExec uint8 = iota
	phaseMerge
)

// turns takes round w's turns in every shard and returns the live
// vertices left. A multi-shard run releases its workers twice, for the
// exec phase and then the merge phase; a single shard takes its turns
// inline and skips the merge whole, since every delivery took the direct
// path, but for the poll of the run's first sleep round. After that
// round, turns starts noting deliveries for the rest of the run.
func (rt *stepRuntime) turns(w int32) int {
	rt.round = w
	if len(rt.starts) > 0 {
		rt.phase(phaseExec)
		rt.phase(phaseMerge)
	} else {
		for _, s := range rt.shards {
			s.runRound(rt, w)
			if !rt.noting {
				s.pollSleepers(rt)
			}
		}
	}
	live, slept := 0, false
	for _, s := range rt.shards {
		live += s.live
		slept = slept || len(s.woken) > 0
	}
	if slept {
		rt.noting = true
		if len(rt.shards) > 1 {
			rt.carveLanes()
		}
	}
	return live
}

// phase releases every worker for phase ph and waits at its barrier.
func (rt *stepRuntime) phase(ph uint8) {
	rt.phaseWG.Add(len(rt.starts))
	for _, start := range rt.starts {
		start <- ph
	}
	rt.phaseWG.Wait()
}

// stop releases the workers.
func (rt *stepRuntime) stop() {
	for _, start := range rt.starts {
		close(start)
	}
}

// runStep executes a step-form program: per-round cost is proportional to
// the vertices due a turn plus the messages delivered, with zero
// goroutines beyond one persistent worker per shard (and none at all with
// a single shard). See the package comment above for the two-phase round
// structure that keeps multicore Results byte-identical.
func runStep(g *graph.Graph, prog StepProgram, opts Options) (*Result, error) {
	n := g.N()
	c := newCore(g, opts)
	c.scratch.apis = reslice(c.scratch.apis, n)
	c.scratch.stepFns = reslice(c.scratch.stepFns, n)
	c.scratch.shardInts = reslice(c.scratch.shardInts, intsPerVertex*n)
	c.scratch.shardTimers = reslice(c.scratch.shardTimers, n)

	// One contiguous shard per worker, at most min(GOMAXPROCS, n) of them
	// (rounding the shard size up can leave fewer, and an empty graph has
	// none). The layout follows the machine, never the Result: every
	// observable is keyed by (vertex, round).
	nshards := gort.GOMAXPROCS(0)
	if nshards > n {
		nshards = n
	}
	if nshards < 1 {
		nshards = 1
	}
	shardSize := (n + nshards - 1) / nshards
	rt := &stepRuntime{c: c, apis: c.scratch.apis, shardSize: int32(shardSize)}
	c.rt = rt
	inboxes := 0 // the shards' largest degrees, summed
	for lo := 0; lo < n; lo += shardSize {
		hi := lo + shardSize
		if hi > n {
			hi = n
		}
		sh := &stepShard{
			idx:      int32(len(rt.shards)),
			lo:       int32(lo),
			hi:       int32(hi),
			fns:      c.scratch.stepFns[lo:hi:hi],
			live:     hi - lo,
			bootProg: prog,
		}
		inboxes += sh.maxDegree(g)
		rt.shards = append(rt.shards, sh)
	}
	c.scratch.shardMsgs = reslice(c.scratch.shardMsgs, inboxes)
	msgs := c.scratch.shardMsgs
	for _, sh := range rt.shards {
		msgs = sh.carve(c.scratch, g, msgs)
	}
	// A multi-shard run keeps one persistent worker per shard, released
	// twice per round (see turns) until stop closes its channel.
	if len(rt.shards) > 1 {
		for _, s := range rt.shards {
			start := make(chan uint8)
			rt.starts = append(rt.starts, start)
			go func() {
				for ph := range start {
					switch {
					case ph == phaseExec:
						s.runRound(rt, rt.round)
					case rt.noting:
						s.applyLanes(rt)
					default:
						s.pollSleepers(rt)
					}
					rt.phaseWG.Done()
				}
			}()
		}
	}

	maxRounds := opts.maxRounds(n)
	res, err := c.finish(c.drive(rt, maxRounds), maxRounds)
	if res != nil {
		res.Shards = len(rt.shards)
	}
	return res, err
}
