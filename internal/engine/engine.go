// Package engine simulates the static synchronous message-passing (LOCAL)
// model of distributed computation used by the paper: an n-vertex graph
// whose vertices are processors, unbounded-size messages to neighbors each
// round, all vertices starting simultaneously in round 0. It separates the
// model's semantics — synchronous rounds, per-directed-edge message slots,
// per-vertex termination accounting — from the mechanics of how vertex
// turns are scheduled.
//
// An algorithm reaches the engine as a Spec in one or both of two
// execution forms, and RunSpec runs the step form whenever the Spec has
// one:
//
//   - Step (StepProgram): vertices are explicit per-round state machines
//     in flat per-shard arrays, with no per-vertex goroutine. Sleeping
//     vertices sit in a timer heap and cost zero scheduler work until a
//     message arrives for them or their window expires, rounds in which
//     every live vertex sleeps are fast-forwarded, and terminated vertices
//     are compacted out. This runner exploits the paper's Lemma 6.1:
//     per-round cost tracks the number of *due* vertices, which decays
//     exponentially, not n. See step.go.
//
//   - Program: blocking per-vertex code, run on one goroutine per vertex
//     driven by a single coordinator. Every live vertex costs one wake and
//     one barrier crossing per round even while it merely waits; it is the
//     form custom programs are written in (vavg.Simulate) and the
//     reference the step translations are checked against.
//
// Both forms execute byte-identical runs for equal seeds: all mutable run
// state (PRNG streams, inbox order, round counters, message counts) is
// per-vertex-indexed and independent of scheduling, which the equivalence
// tests enforce for every registered algorithm.
//
// Termination follows the paper's refinement of Feuilloley's definition:
// when a Program returns its output, the engine broadcasts that final
// output to the vertex's neighbors in one last counted round, and the
// vertex then performs no further computation or communication. The
// per-vertex round count r(v) is the number of rounds the vertex
// participated in, including that final round; the vertex-averaged
// complexity of a run is (1/n) * sum_v r(v).
package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"vavg/internal/graph"
)

// Msg is a message received from a neighbor. A message travels on one of
// two lanes: the integer fast lane (sent via SendInt/BroadcastInt, read
// via AsInt) carries a bare int64 with no heap traffic, while the general
// lane (Send/Broadcast) carries an arbitrary boxed payload in Data.
type Msg struct {
	// From is the sender's vertex ID.
	From int32
	// isInt marks a fast-lane message; Int is then the payload and Data
	// is nil.
	isInt bool
	// Int is the fast-lane payload; meaningful only when AsInt reports ok.
	Int int64
	// Data is the general-lane payload. A payload of type Final is the
	// sender's termination announcement.
	Data any
}

// AsInt returns the fast-lane payload and whether this message used the
// fast lane. General-lane messages (including Final) report ok=false.
func (m Msg) AsInt() (int64, bool) { return m.Int, m.isInt }

// Final is the payload automatically broadcast by a vertex in its last
// round; Output is the value the vertex's Program returned.
type Final struct {
	Output any
}

// Program is the per-vertex code. It runs concurrently with all other
// vertices' Programs and may only interact with them through the API; the
// value it returns is the vertex's output, broadcast to its neighbors in
// one final counted round.
type Program func(api *API) any

// Options configure a run.
type Options struct {
	// Seed seeds the per-vertex deterministic PRNGs. Two runs with equal
	// seeds produce identical executions regardless of scheduling and of
	// the form that runs.
	Seed int64
	// MaxRounds aborts the run if the global round count exceeds it,
	// guarding against livelocked programs. 0 means 4*(n + 64*log2(n) + 64).
	// Either budget is capped at 1<<30 - 1 rounds, the most a message
	// slot's 30-bit round stamp holds: a longer run ends in ErrMaxRounds.
	MaxRounds int
	// Adv is the compiled fault schedule, or nil for the fault-free run.
	// A nil adversary compiles to the existing zero-allocation hot path
	// (a single pointer test per first slot write of a round); a non-nil
	// one must have been normalized for the run's graph (see
	// Adversary.Normalize).
	Adv *Adversary
}

// maxStampRound is the last round a slot tag's stamp holds.
const maxStampRound = 1<<(32-tagKindBits) - 1

// maxRounds returns the run's round budget, capped at maxStampRound: a
// round past it would wrap its tags' stamps to an early round, and collect
// would then drop its messages silently.
func (o Options) maxRounds(n int) int {
	r := o.MaxRounds
	if r == 0 {
		lg := 1
		for 1<<lg < n+2 {
			lg++
		}
		r = 4*n + 256*lg + 256
	}
	return min(r, maxStampRound)
}

// Result reports the outcome and cost accounting of a run.
type Result struct {
	// Rounds[v] is the number of rounds vertex v participated in before
	// terminating (including its final-output round).
	Rounds []int32
	// CommitRounds[v] is the round in which v committed its output via
	// API.Commit — Feuilloley's first definition, under which a vertex may
	// keep computing and relaying after fixing its output. For vertices
	// that never called Commit it equals Rounds[v].
	CommitRounds []int32
	// Output[v] is the value v's Program returned.
	Output []any
	// TotalRounds is the worst-case complexity of the run: max_v Rounds[v].
	TotalRounds int
	// RoundSum is sum_v Rounds[v].
	RoundSum int64
	// ActivePerRound[i] is the number of vertices active in round i+1.
	ActivePerRound []int
	// Messages is the total number of point-to-point messages delivered.
	Messages int64

	// The remaining fields are degradation accounting, filled only when
	// the run carried an Adversary (all zero / nil otherwise).

	// Dropped counts deliveries removed by the adversary's random-loss
	// process; Messages counts only deliveries that arrived.
	Dropped int64
	// LostToCrash counts deliveries killed because an endpoint was
	// inside its crash outage.
	LostToCrash int64
	// Crashed[v] reports that v was crashed and never restarted: its
	// Output is nil and Rounds[v] is its crash round. Nil without an
	// adversary.
	Crashed []bool
	// CrashedForever and Restarts count the vertices that died for good
	// and the ones that rebooted.
	CrashedForever int
	// Restarts is the number of vertices that crashed and were rebooted
	// from a fresh init.
	Restarts int

	// Shards is the number of contiguous shards the step runner used,
	// one per worker, at most min(GOMAXPROCS, n); 0 when the blocking form
	// ran on goroutines. Purely informational: Results are invariant in
	// the shard count.
	Shards int
}

// VertexAverage returns RoundSum / n, the paper's vertex-averaged
// complexity of the execution.
func (r *Result) VertexAverage() float64 {
	if len(r.Rounds) == 0 {
		return 0
	}
	return float64(r.RoundSum) / float64(len(r.Rounds))
}

// CommitAverage returns the node-averaged complexity under Feuilloley's
// first definition: the mean of the per-vertex output-commitment rounds.
func (r *Result) CommitAverage() float64 {
	if len(r.CommitRounds) == 0 {
		return 0
	}
	var sum int64
	for _, c := range r.CommitRounds {
		sum += int64(c)
	}
	return float64(sum) / float64(len(r.CommitRounds))
}

// MaxCommit returns the largest per-vertex commitment round.
func (r *Result) MaxCommit() int {
	m := 0
	for _, c := range r.CommitRounds {
		if int(c) > m {
			m = int(c)
		}
	}
	return m
}

// ErrMaxRounds is returned when a run exceeds Options.MaxRounds.
var ErrMaxRounds = errors.New("engine: exceeded maximum round count")

// Spec describes an algorithm to the engine in one or both execution
// forms: the blocking per-vertex Program and the equivalent step
// (state-machine) form. The two forms express the same executions; which
// one runs is an execution-strategy choice that never changes the Result.
type Spec struct {
	// Program is the blocking per-vertex form, or nil for a step-only
	// Spec.
	Program Program
	// Step is the per-round state-machine form, or nil for a
	// blocking-only Spec.
	Step StepProgram
}

// Run executes prog on every vertex of g, one goroutine per vertex, until
// all vertices terminate.
func Run(g *graph.Graph, prog Program, opts Options) (*Result, error) {
	return RunSpec(g, Spec{Program: prog}, opts)
}

// RunSpec executes spec on g: the step form on the step runner when the
// Spec has one, otherwise the blocking form on one goroutine per vertex.
// A Spec with neither form is an error.
func RunSpec(g *graph.Graph, spec Spec, opts Options) (*Result, error) {
	switch {
	case spec.Step != nil:
		return runStep(g, spec.Step, opts)
	case spec.Program != nil:
		return runGoroutines(g, spec.Program, opts)
	}
	return nil, errors.New("engine: empty Spec: no Program and no StepProgram")
}

// tag is one directed-edge message slot, uint32(round)<<2 | kind. Slots
// are sender-indexed: the tag of edge u→v sits at u's adjacency position p
// of v (Adj[p] == v, inside u's [Off[u], Off[u+1]) window), so u's sends,
// broadcasts and Final all write u's own window, and v's collect reads it
// through the reverse-edge index, at Rev[q] for its own position q of u.
// kind selects the payload lane; tagEmpty marks a slot not yet written in
// the run, or a delivery the adversary removed. round stamps the round the
// sender last wrote the slot in (its API.round+1): put compares it with
// the writer's round to tell the slot's first write of a round, the
// counted message, from a rewrite, and collect accepts a tag only when it
// carries the round the inbox was sent in. The stamp keeps 30 bits, which
// Options.maxRounds guarantees are enough. A tag holds no payload: an
// integer sits at the same slot of the core's int column, a general-lane
// payload at the same slot of its any column, and a Final in its sender's
// finals entry. So the two tag slabs are 8 bytes per directed edge that
// the GC never scans, and a run that sends only Finals needs nothing else
// per edge.
type tag uint32

// tag kinds, the low tagKindBits bits of a tag. No reader clears a tag: a
// tag from an earlier round stays in its slab until its sender writes the
// slot again, and collect skips it by its stamp, which never equals the
// round being collected. reslice zeroes every tag between runs.
const (
	tagEmpty = tag(iota)
	tagAny   // the any column holds the payload at this slot
	tagInt   // the int column holds a fast-lane integer at this slot
	tagFinal // the sender terminated; its boxed Final is in core.finals

	tagKindBits = 2
	tagKindMask = 1<<tagKindBits - 1
)

// roundTag returns the stamp of round r with an empty kind: the tag of a
// delivery removed in round r, and the part of every round-r tag that
// collect and put compare.
func roundTag(r int32) tag { return tag(r) << tagKindBits }

// column is a double-buffered payload column indexed like the tag slabs
// and swapped with them at every round barrier. Both sides stay nil until
// the run's first send on the column's lane, which carves them from the
// run scratch's slab for the lane, so a run that never uses a lane never
// allocates its column. Before that send no tag names the lane, so no
// collect reads the column. Vertices of different shards (or goroutines)
// may make that first send in the same round; once serializes it, and its
// fast path is one atomic load per sending call.
type column[T any] struct {
	send, recv []T
	once       sync.Once
}

// sized returns the send side, carving both sides of size elements each
// from *slab on the first call.
func (c *column[T]) sized(slab *[]T, size int) []T {
	c.once.Do(func() { c.send, c.recv = halves(slab, size) })
	return c.send
}

func (c *column[T]) swap() { c.send, c.recv = c.recv, c.send }

// runScratch holds the per-run engine allocations that never escape into
// the Result, recycled through scratchPool so that concurrent sweep points
// do not multiply steady-state allocations by the worker count:
//
//   - the double buffers: the two pointer-free tag slabs, len(Adj) tags
//     each indexed by the sender's adjacency position, and, each one slab
//     carved into its two sides (see halves), the per-vertex send stamps
//     swapped with them and the payload columns paired with them, the int
//     column sized only on a run's first SendInt or BroadcastInt and the
//     general-lane column only on its first Send or Broadcast (see
//     column). The tag slabs stay two allocations: carved from one slab,
//     they raised partition-forests' peak RSS from 73.3 to 74.9 MiB;
//   - the flat []Msg inbox slab, whose window [Off[v], Off[v+1]) holds v's
//     mail that outlives a turn (a sleeper's drains, a blocking vertex's
//     Next and Idle), sized only on a run's first such collect (see
//     core.inboxWindow);
//   - per-vertex state: the boxed Finals receivers read, and the done
//     flags and message counters the runners read at barriers;
//   - the step runner's flat per-vertex machine state (API handles and
//     pending turns), its cross-shard staging lanes (see
//     stepRuntime.carveLanes) and the slabs its shards carve their
//     active, wake and turn-order lists and their turn inboxes from (see
//     stepShard.carve). The goroutine runner leaves these untouched.
//
// Every buffer of a run is sized from the graph here, so no run grows one
// by append, whatever its degrees; only a Sleep or Idle window longer than
// the inbox, or adversary-stale timers, can spill to the heap. Rounds,
// commitments and outputs are excluded: Result aliases those arrays, so
// they must stay owned by the caller.
type runScratch struct {
	tags     [2][]tag
	stamps   []int32
	ints     []int64
	anys     []any
	inbox    []Msg // flat per-vertex inboxes: v owns [Off[v], Off[v+1]) (see core.inboxWindow)
	finals   []any
	done     []bool
	msgCount []int64
	apis     []API
	stepFns  []StepFn
	lanes    []lane
	laneSlab []int32
	// shardInts and shardTimers back the step shards' per-run lists,
	// intsPerVertex int32s and one timer entry per vertex, and shardMsgs
	// their turn inboxes, each shard's largest degree in messages (see
	// stepShard.carve).
	shardInts   []int32
	shardTimers []idleEntry
	shardMsgs   []Msg
}

var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// reslice returns s resized to n elements and zeroed, reusing its backing
// array when the capacity allows.
func reslice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// halves reslices *slab to 2*n elements and returns its two halves, the
// sides of a double buffer, so each double buffer costs one allocation.
func halves[T any](slab *[]T, n int) (a, b []T) {
	*slab = reslice(*slab, 2*n)
	return (*slab)[:n:n], (*slab)[n:]
}

// core is the run state shared by both runners: the runner itself, the
// double-buffered directed-edge slots plus the per-vertex accounting
// arrays. All arrays are indexed by vertex (or directed-edge position), so
// no two vertices ever write the same element and results are
// scheduling-independent.
type core struct {
	g        *graph.Graph
	scratch  *runScratch
	rt       runtime
	sendTags []tag // written during the current round
	recvTags []tag // holds the previous round's messages
	// sendStamp[u] is the last round u delivered a message in through
	// sendTags; recvStamp is its previous-round twin, swapped with the tag
	// slabs. collect skips a neighbor whose stamp is not the round it
	// collects without touching the neighbor's tags. One array would not
	// do: a neighbor that sends again in the collecting round would hide
	// the previous round's message.
	sendStamp []int32
	recvStamp []int32
	// ints and anys are the fast-lane and general-lane payload columns,
	// sized on the run's first send on their lane (see intColumn and
	// anyColumn).
	ints column[int64]
	anys column[any]
	// inboxOnce sizes the run scratch's inbox slab on the run's first
	// collect into a persistent window (see inboxWindow).
	inboxOnce sync.Once
	finals    []any  // finals[v] is v's boxed Final, set when v terminates
	done      []bool // set by a vertex when it terminates (read at barriers)
	rounds    []int32
	commits   []int32
	output    []any
	msgCount  []int64
	// panics lists the vertices' recorded failures in no particular order;
	// only the panic path takes panicMu (see recordPanic).
	panicMu sync.Mutex
	panics  []vertexPanic
	aborted bool
	seed    int64

	// Relabel translation (graph.Relabel views, DESIGN.md §11). The engine
	// runs in the view's cache-friendly vertex space, but every observable
	// stays in original-ID space: orig maps engine vertex → original ID
	// (nil when unrelabeled), from[q] is the sender ID collect reports for
	// the neighbor at adjacency position q (the view's AdjOrig, or g.Adj
	// unrelabeled — branch-free on the hot path), and slotOrig maps view
	// slots to original directed-edge positions so the adversary's drop
	// hash sees original slots (nil when unrelabeled).
	orig     []int32
	from     []int32
	slotOrig []int32

	// Adversary state, nil on fault-free runs: the schedule itself plus
	// the per-vertex degradation counters. crashed is caller-owned (the
	// Result aliases it); the counters are summed into the Result at
	// finish. gens[v] is v's PRNG incarnation (see API.Rand). These
	// allocate only when an adversary is present, keeping the nil-scenario
	// path on the recycled-scratch fast path.
	adv       *Adversary
	crashed   []bool
	gens      []int32
	dropCount []int64
	lostCount []int64
}

func newCore(g *graph.Graph, opts Options) *core {
	n := g.N()
	s := scratchPool.Get().(*runScratch)
	s.finals = reslice(s.finals, n)
	s.done = reslice(s.done, n)
	s.msgCount = reslice(s.msgCount, n)
	c := &core{
		g:        g,
		scratch:  s,
		finals:   s.finals,
		done:     s.done,
		rounds:   make([]int32, n),
		commits:  make([]int32, n),
		output:   make([]any, n),
		msgCount: s.msgCount,
		seed:     opts.Seed,
	}
	for i := range s.tags {
		s.tags[i] = reslice(s.tags[i], len(g.Adj))
	}
	c.sendTags, c.recvTags = s.tags[0], s.tags[1]
	c.sendStamp, c.recvStamp = halves(&s.stamps, n)
	c.from = g.Adj
	if pm := g.Perm; pm != nil {
		c.orig = pm.Orig
		c.from = pm.AdjOrig
		c.slotOrig = pm.SlotOrig
	}
	if opts.Adv != nil {
		c.adv = opts.Adv
		if g.Perm != nil {
			// Vertex-keyed fault decisions (crash windows, restarts) must
			// follow their vertices into the view's ID space; the original
			// Adversary is shared across a sweep and stays untouched.
			c.adv = opts.Adv.permuted(g.Perm.New)
		}
		c.crashed = make([]bool, n)
		c.gens = make([]int32, n)
		c.dropCount = make([]int64, n)
		c.lostCount = make([]int64, n)
	}
	return c
}

// release returns the run scratch to the pool. Safe only once every
// vertex goroutine has terminated (finish's callers guarantee that).
func (c *core) release() {
	if c.scratch == nil {
		return
	}
	scratchPool.Put(c.scratch)
	c.scratch = nil
	c.sendTags, c.recvTags, c.sendStamp, c.recvStamp = nil, nil, nil, nil
	c.ints.send, c.ints.recv, c.anys.send, c.anys.recv = nil, nil, nil, nil
	c.finals, c.done, c.msgCount = nil, nil, nil
}

// swap exchanges the double buffers at a round barrier: what was sent this
// round becomes receivable.
func (c *core) swap() {
	c.sendTags, c.recvTags = c.recvTags, c.sendTags
	c.sendStamp, c.recvStamp = c.recvStamp, c.sendStamp
	c.ints.swap()
	c.anys.swap()
}

// intColumn and anyColumn return the fast-lane and general-lane columns of
// the current round's sends, sized on the run's first send on their lane.
func (c *core) intColumn() []int64 { return c.ints.sized(&c.scratch.ints, len(c.g.Adj)) }
func (c *core) anyColumn() []any   { return c.anys.sized(&c.scratch.anys, len(c.g.Adj)) }

// inboxWindow returns v's window of the inbox slab, [Off[v], Off[v+1])
// capped at deg(v), sizing the slab from the run scratch on the run's
// first call. Only mail that outlives a turn needs a window: a sleeper's
// drains (with its wake round's mail appended after them) and a blocking
// vertex's Next and Idle. A step turn otherwise reads its shard's turn
// inbox, so a step run in which no sleeper gets mail before its wake
// round never allocates the slab. Vertices of different shards (or
// goroutines) may make that first call in the same round; inboxOnce
// serializes it. An inbox that gathers more than deg(v) messages (a long
// Sleep or Idle window) spills to the heap through append instead of into
// the next vertex's window.
func (c *core) inboxWindow(v int32) []Msg {
	c.inboxOnce.Do(c.allocInbox)
	lo, hi := c.g.Off[v], c.g.Off[v+1]
	return c.scratch.inbox[lo:lo:hi]
}

func (c *core) allocInbox() {
	s := c.scratch
	s.inbox = reslice(s.inbox, len(c.g.Adj))
}

// id returns engine vertex v's original ID.
func (c *core) id(v int32) int {
	if c.orig != nil {
		return int(c.orig[v])
	}
	return int(v)
}

// recordPanic records that vertex v panicked with val while executing
// round. Runners call it from a vertex's recover, on any shard or
// goroutine, so the list takes a mutex; a run without panics never does.
func (c *core) recordPanic(v int32, val any, round int32) {
	c.panicMu.Lock()
	c.panics = append(c.panics, vertexPanic{v: v, round: round, val: val})
	c.panicMu.Unlock()
}

// drive is the one round loop of both runners: it runs rt round by round
// until no vertex is live and no restart is pending, or until maxRounds is
// reached, which aborts the run, then stops rt and returns
// ActivePerRound. It owns everything about advancing rounds: the round
// counter, the buffer swap at each barrier, fast-forward, ActivePerRound,
// the MaxRounds abort and the adversary's crash and restart schedules.
//
// Round w's crashes are applied before its turns: a victim counts as
// active in its crash round (its ActivePerRound entry already includes
// it) but executes nothing. A vertex that terminated before its crash
// round is skipped, and so is its restart, which is gated on the vertex
// having crashed. A restart is applied after the swap into its round, so
// the fresh incarnation's first sends write the live send buffer, and the
// rebooted vertex counts in that round's entry.
//
// Rounds in which no vertex takes a turn, because every live vertex
// sleeps without a deliverable message, are fast-forwarded: the live
// vertices pay them (the paper's waiting-is-active accounting) at O(1)
// cost each. No crash or restart round is skipped.
func (c *core) drive(rt runtime, maxRounds int) []int {
	var crashes, restarts eventCursor
	if c.adv != nil {
		crashes = eventCursor{events: c.adv.crashes}
		restarts = eventCursor{events: c.adv.restarts}
	}
	activePerRound := []int{c.g.N()}
	round := 1
	for {
		for _, e := range crashes.take(int32(round)) {
			if !c.done[e.v] {
				c.done[e.v], c.crashed[e.v], c.rounds[e.v] = true, true, int32(round)
				rt.crash(e.v)
			}
		}
		live := rt.turns(int32(round))
		if live == 0 && !restarts.pending() {
			break
		}
		next := min(rt.nextTurn(round), crashes.nextRound(), restarts.nextRound())
		for round < maxRounds && round+1 < next {
			round++
			activePerRound = append(activePerRound, live)
		}
		if round >= maxRounds {
			c.aborted = true
			break
		}
		round++
		c.swap()
		for _, e := range restarts.take(int32(round)) {
			if c.crashed[e.v] {
				c.done[e.v], c.crashed[e.v] = false, false
				c.gens[e.v]++
				rt.reboot(e.v, int32(round))
				live++
			}
		}
		activePerRound = append(activePerRound, live)
	}
	rt.stop()
	return activePerRound
}

// finish audits panics and assembles the Result once every vertex is
// done, then recycles the run scratch. Of several panicking vertices it
// reports the one with the lowest original ID, so the error does not
// depend on the relabel layout or the order in which shards recorded
// them.
func (c *core) finish(activePerRound []int, maxRounds int) (*Result, error) {
	defer c.release()
	n := c.g.N()
	if len(c.panics) > 0 {
		first := c.panics[0]
		for _, p := range c.panics[1:] {
			if c.id(p.v) < c.id(first.v) {
				first = p
			}
		}
		return nil, fmt.Errorf("engine: vertex %d panicked in round %d: %v", c.id(first.v), first.round, first.val)
	}
	if c.aborted && c.adv == nil {
		return nil, fmt.Errorf("%w (%d rounds)", ErrMaxRounds, maxRounds)
	}
	if c.orig != nil {
		c.unmap()
	}
	res := &Result{
		Rounds:         c.rounds,
		CommitRounds:   c.commits,
		Output:         c.output,
		ActivePerRound: activePerRound,
	}
	for v := 0; v < n; v++ {
		if res.CommitRounds[v] == 0 {
			res.CommitRounds[v] = res.Rounds[v]
		}
	}
	for v := 0; v < n; v++ {
		if int(c.rounds[v]) > res.TotalRounds {
			res.TotalRounds = int(c.rounds[v])
		}
		res.RoundSum += int64(c.rounds[v])
		res.Messages += c.msgCount[v]
	}
	if c.adv != nil {
		res.Crashed = c.crashed
		for v := 0; v < n; v++ {
			res.Dropped += c.dropCount[v]
			res.LostToCrash += c.lostCount[v]
			if c.crashed[v] {
				res.CrashedForever++
			}
			if c.gens[v] > 0 {
				res.Restarts++
			}
		}
	}
	if c.aborted {
		// Under an adversary a livelocked run is a data point, not a
		// failure: return the partial accounting alongside the error so
		// degradation experiments can report DNF rows.
		return res, fmt.Errorf("%w (%d rounds)", ErrMaxRounds, maxRounds)
	}
	return res, nil
}

// unmap permutes the per-vertex Result arrays of a relabeled run back to
// original vertex indexing, in place: the entries of engine vertex v move
// to index Orig[v], one cycle of Orig at a time. The engine executed in
// the view's ID space, but Results are part of the observable contract:
// after this pass they are byte-identical to an unrelabeled run's. The
// arrays are the run's own (newCore makes them fresh for the Result), and
// the done flags, which no one reads once every vertex has stopped, mark
// the indices already filled.
func (c *core) unmap() {
	placed := c.done
	clear(placed)
	for s := range placed {
		if placed[s] {
			continue
		}
		// Carry s's entries along its cycle: each step stores the carried
		// entries at index o, the image under Orig of the index they came
		// from, and picks up o's, until the cycle returns to s.
		r, k, out := c.rounds[s], c.commits[s], c.output[s]
		var crashed bool
		if c.crashed != nil {
			crashed = c.crashed[s]
		}
		for o := c.orig[s]; ; o = c.orig[o] {
			r, c.rounds[o] = c.rounds[o], r
			k, c.commits[o] = c.commits[o], k
			out, c.output[o] = c.output[o], out
			if c.crashed != nil {
				crashed, c.crashed[o] = c.crashed[o], crashed
			}
			placed[o] = true
			if int(o) == s {
				break
			}
		}
	}
}

type abortSentinel struct{}

// vertexPanic is a vertex's recorded failure: the engine vertex, the
// 1-based round it was executing (building a step machine counts as round
// 1, where its first turn runs) and the recovered value.
type vertexPanic struct {
	v     int32
	round int32
	val   any
}

// runtime is the runner-side contract: what differs between the step
// runner and the goroutine runner.
//
// The API side: how a blocking vertex crosses a round barrier (next) and
// waits out an idle window (idle) — the step runtime rejects both, as step
// programs cross rounds by returning a verdict — and what a runner must
// learn of a delivery. delivered is told that the sending vertex just
// wrote a message for receiver recv into the send buffer; put has already
// written the slot and counted the message, and calls it once per slot and
// round, on the slot's first write. The step runner notes the receiver so
// a sleeping one drains its slot in time, staging cross-shard receivers
// for a deterministic merge at the round barrier; the goroutine runner
// wakes every live vertex anyway and does nothing.
//
// The round side, which core.drive calls from the coordinator between
// rounds: turns takes round w's turns and returns the number of live
// vertices left; nextTurn returns the earliest round after cur in which
// some vertex takes a turn, or math.MaxInt when none is scheduled; crash
// retires vertex v, which drive has just marked crashed, before its crash
// round's turns; reboot re-arms crashed vertex v, which drive has just
// marked live again, for its restart round w; stop releases what the
// runner still holds once drive leaves the loop, finished or aborted.
type runtime interface {
	next(a *API, buf []Msg) []Msg
	idle(a *API, k int, buf []Msg) []Msg
	delivered(a *API, recv int32)
	turns(w int32) int
	nextTurn(cur int) int
	crash(v int32)
	reboot(v, w int32)
	stop()
}

// API is the interface a Program uses to act as its vertex. All methods
// must be called only from the Program's own goroutine. It holds only what
// is the vertex's own; what every vertex of the run shares (the runner,
// the seed, the PRNG incarnations) it reads through core, which keeps it
// at 48 bytes on 64-bit targets.
type API struct {
	core  *core
	v     int32
	round int32
	rng   *rand.Rand
	inbox []Msg // persistent inbox: nil or v's window of the inbox slab (see window)
}

// initAPI makes *a vertex v's fresh handle, round rounds into its run. Its
// persistent inbox stays nil until the vertex first collects mail that
// must outlive a turn (see API.window), and its PRNG until its first Rand.
func (c *core) initAPI(a *API, v, round int32) {
	*a = API{core: c, v: v, round: round}
}

// window returns the vertex's persistent inbox, the mail it has gathered
// so far, carving its window of the inbox slab on first use (see
// core.inboxWindow).
func (a *API) window() []Msg {
	if a.inbox == nil {
		a.inbox = a.core.inboxWindow(a.v)
	}
	return a.inbox
}

// runVertex executes prog on vertex v, then performs the final counted
// round: broadcast the output once and terminate completely. done signals
// the runner's barrier for this vertex. The vertex starts with startRound
// completed rounds on its clock: 0 is the normal spawn; adversary restarts
// reboot a crashed vertex with startRound = the round before its restart
// round, so its fresh incarnation executes its first round exactly at
// RestartAt.
func runVertex(c *core, v int32, prog Program, done func(), startRound int32) {
	api := new(API)
	c.initAPI(api, v, startRound)
	defer func() {
		if p := recover(); p != nil {
			switch p.(type) {
			case crashSentinel, abortSentinel:
				// A scheduled crash, or the unwinding of an aborted run.
			default:
				c.recordPanic(v, p, api.round+1)
			}
			c.done[v] = true
			done()
		}
	}()
	out := prog(api)
	api.final(out)
	api.round++
	c.rounds[v] = api.round
	c.output[v] = out
	c.done[v] = true
	done()
}

// ID returns this vertex's ID (also its identifier in the ID assignment).
// On a relabeled view this is the original ID — the relabeling is a
// storage-layout choice, never observable to the algorithm.
func (a *API) ID() int { return a.core.id(a.v) }

// N returns the number of vertices in the graph; per the model, n is
// global knowledge.
func (a *API) N() int { return a.core.g.N() }

// Degree returns this vertex's degree in the input graph.
func (a *API) Degree() int { return a.core.g.Degree(int(a.v)) }

// NeighborIDs returns this vertex's neighbor IDs in ascending order. The
// slice aliases shared storage and must not be modified. On a relabeled
// view the slice is the original-ID adjacency (Relabeling.AdjOrig), which
// keeps the original ascending order.
func (a *API) NeighborIDs() []int32 {
	g := a.core.g
	return a.core.from[g.Off[a.v]:g.Off[a.v+1]]
}

// Round returns the number of rounds this vertex has completed.
func (a *API) Round() int { return int(a.round) }

// NeighborIndex returns the position of vertex id within NeighborIDs, or
// -1 if id is not a neighbor. The search always runs over original-ID
// adjacency (NeighborIDs' backing slice), which is ascending on relabeled
// views too.
func (a *API) NeighborIndex(id int32) int {
	return graph.SearchAdj(a.NeighborIDs(), id)
}

// Rand returns this vertex's deterministic PRNG, created on first use so
// that programs which never draw pay nothing. The stream is keyed by
// (run seed, original vertex ID, restart generation) through streamSeed,
// and is bit-identical to rand.New(rand.NewSource(streamSeed(...))); its
// lazySource computes only the state words the vertex's draws read, so d
// draws cost O(d) words instead of math/rand's 607-word seeding. The
// generation is read here, from core.gens: drive bumps it before it
// reboots a vertex, and a reboot makes a fresh handle, so the first draw
// of an incarnation always sees that incarnation's generation.
func (a *API) Rand() *rand.Rand {
	if a.rng == nil {
		co := a.core
		id := int64(a.v)
		if co.orig != nil {
			// The stream is keyed by the ORIGINAL ID: relabeled runs must
			// draw byte-identical randomness.
			id = int64(co.orig[a.v])
		}
		var gen int32
		if co.gens != nil {
			gen = co.gens[a.v]
		}
		a.rng = rand.New(newLazySource(streamSeed(co.seed, id, gen)))
	}
	return a.rng
}

// streamSeed derives the PRNG seed of vertex id's incarnation gen from the
// run seed.
func streamSeed(seed, id int64, gen int32) int64 {
	s := seed ^ (id+1)*0x9e3779b97f4a7c
	if gen > 0 {
		// A restarted incarnation draws a fresh stream — reusing the
		// pre-crash stream would correlate the reboot with its own past.
		// Generation 0 leaves the seed untouched so fault-free runs are
		// byte-identical to runs built before restarts existed.
		s ^= (int64(gen) + 1) * 0x632be59bd9b4e019
	}
	return s
}

// Commit records that this vertex has irrevocably chosen its output in
// the current round, per Feuilloley's first definition: the vertex may
// keep computing and relaying afterwards, but its commitment round — not
// its termination round — is what CommitRounds reports. Only the first
// call takes effect.
func (a *API) Commit() {
	if a.core.commits[a.v] == 0 {
		a.core.commits[a.v] = a.round + 1
	}
}

// Send queues data for the k-th neighbor (index into NeighborIDs); it is
// delivered when the current round completes at the next Next call.
// Sending again to the same neighbor in the same round overwrites. It
// panics if k is not a valid neighbor index.
func (a *API) Send(k int, data any) {
	send(a, a.nbrPos(k), tagAny, a.core.anyColumn(), data)
}

// SendInt queues the fast-lane integer x for the k-th neighbor. It has
// Send's delivery semantics (the two lanes share the one per-neighbor
// slot) but never boxes the payload, so the steady-state message path
// performs zero allocations.
func (a *API) SendInt(k int, x int64) {
	send(a, a.nbrPos(k), tagInt, a.core.intColumn(), x)
}

// send writes a kind tag to the sender's slot p and stores x at p of col,
// its lane's column, unless the delivery was removed.
func send[T any](a *API, p int32, kind tag, col []T, x T) {
	if r := a.put(p, kind); r >= 0 {
		col[r] = x
	}
}

// nbrPos returns the adjacency position of the k-th neighbor, panicking
// if k is not a valid neighbor index.
func (a *API) nbrPos(k int) int32 {
	g := a.core.g
	lo, hi := g.Off[a.v], g.Off[a.v+1]
	if k < 0 || k >= int(hi-lo) {
		panic(fmt.Sprintf("engine: vertex %d: neighbor index %d out of range [0,%d)", a.ID(), k, hi-lo))
	}
	return lo + int32(k)
}

// SendID queues data for the neighbor with vertex ID nbr; it panics if nbr
// is not a neighbor.
func (a *API) SendID(nbr int, data any) {
	a.Send(a.mustNeighborIndex(nbr), data)
}

// SendIDInt queues the fast-lane integer x for the neighbor with vertex ID
// nbr; it panics if nbr is not a neighbor.
func (a *API) SendIDInt(nbr int, x int64) {
	a.SendInt(a.mustNeighborIndex(nbr), x)
}

func (a *API) mustNeighborIndex(nbr int) int {
	k := a.NeighborIndex(int32(nbr))
	if k < 0 {
		panic(fmt.Sprintf("engine: vertex %d sending to non-neighbor %d", a.ID(), nbr))
	}
	return k
}

// Broadcast queues data for every neighbor. It overwrites any sends to
// those neighbors earlier in the round, and later sends in the round
// overwrite it (last write wins on every slot).
func (a *API) Broadcast(data any) {
	broadcast(a, tagAny, a.core.anyColumn(), data)
}

// BroadcastInt queues the fast-lane integer x for every neighbor, with
// Broadcast's semantics and zero allocations.
func (a *API) BroadcastInt(x int64) {
	broadcast(a, tagInt, a.core.intColumn(), x)
}

// broadcast sends x on col's lane to every neighbor: one sequential run of
// tag writes over the sender's window, and one of payload writes over the
// same window of col.
func broadcast[T any](a *API, kind tag, col []T, x T) {
	g := a.core.g
	for p, hi := g.Off[a.v], g.Off[a.v+1]; p < hi; p++ {
		send(a, p, kind, col, x)
	}
}

// final is the terminating vertex's last broadcast: it boxes Final{out}
// once into v's finals entry, one allocation per terminating vertex
// whatever its degree, and writes a tagFinal to every neighbor, whose
// collect hands out that same boxed value. It writes tags only.
func (a *API) final(out any) {
	a.core.finals[a.v] = Final{Output: out}
	g := a.core.g
	for p, hi := g.Off[a.v], g.Off[a.v+1]; p < hi; p++ {
		a.put(p, tagFinal)
	}
}

// put is the one write path of every send: it writes a kind tag for
// adjacency position p of the sending vertex (receiver g.Adj[p]) straight
// into slot p of the send buffer, inside the sender's own window, and
// returns p, or -1 when the delivery was removed, so a sender knows where
// to store its payload in its lane's column. A broadcast or a Final thus
// writes one contiguous run of tags. The write needs no lock and may land
// mid-round: each slot has a single writer, this vertex, and its receiver
// reads it only after the round barrier swaps the buffers. The model
// allows one message per directed edge and round, so only the slot's
// first write of the round is the message — counted, stamped into the
// sender's send stamp, and announced to the runtime through delivered —
// while later writes in the same round overwrite its kind and payload
// (last write wins) and count nothing.
//
// Under an adversary the first write also decides the delivery's fate. A
// send written while executing round w (a.round == w-1) is delivered in
// round w+1, so the crash windows and the drop hash see delivery round
// a.round+2; both verdicts are pure functions of (slot, delivery round)
// and the schedule. The drop hash keys on the receiver-side slot Rev[p],
// the numbering the seeded fault decisions and their golden counts use. A
// removed delivery leaves a stamped-empty tag, so a rewrite in the same
// round neither resurrects nor recounts it.
//
//vavg:hotpath
func (a *API) put(p int32, kind tag) int32 {
	co := a.core
	slot := &co.sendTags[p]
	stamp := roundTag(a.round + 1)
	if *slot&^tagKindMask == stamp {
		if *slot == stamp {
			return -1
		}
		*slot = stamp | kind
		return p
	}
	recv := co.g.Adj[p]
	if adv := co.adv; adv != nil {
		dr := a.round + 2
		switch {
		case adv.inWindow(a.v, dr) || adv.inWindow(recv, dr):
			*slot = stamp
			co.lostCount[a.v]++
			return -1
		case adv.dropped(co.dropSlot(co.g.Rev[p]), dr):
			*slot = stamp
			co.dropCount[a.v]++
			return -1
		}
	}
	*slot = stamp | kind
	co.sendStamp[a.v] = a.round + 1
	co.msgCount[a.v]++
	co.rt.delivered(a, recv)
	return p
}

// dropSlot translates a delivery slot for the adversary's drop hash: on a
// relabeled view the hash must see the ORIGINAL directed-edge position, so
// faulty relabeled runs drop exactly the deliveries unrelabeled runs do.
func (c *core) dropSlot(slot int32) int32 {
	if c.slotOrig != nil {
		return c.slotOrig[slot]
	}
	return slot
}

// collect appends the messages sent to this vertex in round sent (ordered
// by neighbor index) to buf: its step shard's turn inbox for mail read in
// the turn that follows, or its persistent window (see API.window) for
// mail that must outlive a turn. The tag of the neighbor at position q
// sits in that neighbor's window at Rev[q]; collect reads it only when the
// neighbor's send stamp says it delivered something in round sent, and
// accepts it only when the tag's own stamp is sent too, so it never clears
// a tag and never mistakes an older one for news. The tag's kind then
// says where the payload is: at the same slot of the int or the any
// column, or, for a Final, in its sender's finals entry. collect nils the
// any-column entries it reads, so the column does not keep a delivered
// payload alive.
//
//vavg:hotpath
func (a *API) collect(buf []Msg, sent int32) []Msg {
	co := a.core
	g := co.g
	from := co.from
	stamp := roundTag(sent)
	lo, hi := g.Off[a.v], g.Off[a.v+1]
	for q := lo; q < hi; q++ {
		u := g.Adj[q]
		if co.recvStamp[u] != sent {
			continue
		}
		p := g.Rev[q]
		t := co.recvTags[p]
		if t&^tagKindMask != stamp || t == stamp {
			continue
		}
		m := Msg{From: from[q]}
		switch t & tagKindMask {
		case tagInt:
			m.Int, m.isInt = co.ints.recv[p], true
		case tagAny:
			m.Data = co.anys.recv[p]
			co.anys.recv[p] = nil
		default:
			m.Data = co.finals[u]
		}
		buf = append(buf, m)
	}
	return buf
}

// Next completes the current round, making its sends receivable, and
// blocks until the next synchronous round begins, returning the messages this
// vertex received, ordered by neighbor index.
//
// The returned slice is a per-vertex buffer reused by the next Next or
// Idle call; programs that retain messages across rounds must copy them.
func (a *API) Next() []Msg {
	a.inbox = a.core.rt.next(a, a.window()[:0])
	return a.inbox
}

// Idle spends k counted rounds sending nothing and returns every message
// received during them (in arrival order). Algorithms use it to wait out a
// scheduled window while remaining active, exactly as waiting vertices do
// in the paper's RoundSum accounting.
//
// Messages accumulate into the vertex's reused receive buffer (see Next),
// so a long quiet window allocates nothing per round. Step programs use
// Sleep instead, which parks the vertex for the whole window at no
// scheduler cost until a message arrives or the window expires.
func (a *API) Idle(k int) []Msg {
	a.inbox = a.core.rt.idle(a, k, a.window()[:0])
	return a.inbox
}
