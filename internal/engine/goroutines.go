package engine

import (
	"sync"

	"vavg/internal/graph"
)

type goRuntime struct {
	c    *core
	prog Program
	wg   sync.WaitGroup
	wake []chan struct{}
	// active lists the live vertices. Between rounds each waits for its
	// wake: at the round barrier, or, if start has not run its first round
	// yet, before it.
	active []int32
}

// delivered needs no wake bookkeeping: every vertex has its own goroutine
// and is woken every round regardless.
func (rt *goRuntime) delivered(*API, int32) {}

func (rt *goRuntime) next(a *API, buf []Msg) []Msg {
	a.round++
	rt.c.rounds[a.v] = a.round
	rt.wg.Done()
	<-rt.wake[a.v]
	if rt.c.aborted {
		panic(abortSentinel{})
	}
	if rt.c.crashed != nil && rt.c.crashed[a.v] {
		// drive crashed the vertex while it was parked: it counts as active
		// in its crash round but executes nothing. The sentinel unwinds to
		// runVertex's recover.
		panic(crashSentinel{})
	}
	return a.collect(buf, a.round)
}

func (rt *goRuntime) idle(a *API, k int, buf []Msg) []Msg {
	for i := 0; i < k; i++ {
		buf = rt.next(a, buf)
	}
	return buf
}

// turns wakes the live vertices for round w, waits until each has crossed
// the round's barrier, and drops the ones that terminated.
func (rt *goRuntime) turns(int32) int {
	rt.wakeActive()
	live := rt.active[:0]
	for _, v := range rt.active {
		if !rt.c.done[v] {
			live = append(live, v)
		}
	}
	rt.active = live
	return len(live)
}

// wakeActive wakes every live vertex and waits at the round barrier.
func (rt *goRuntime) wakeActive() {
	rt.wg.Add(len(rt.active))
	for _, v := range rt.active {
		rt.wake[v] <- struct{}{}
	}
	rt.wg.Wait()
}

// nextTurn is the next round: every live vertex is woken every round,
// whether it has work or is merely waiting out a window.
func (rt *goRuntime) nextTurn(cur int) int { return cur + 1 }

// crash needs no runner state: the vertex is parked, and it unwinds when
// turns wakes it for its crash round and it finds itself crashed.
func (rt *goRuntime) crash(int32) {}

// reboot starts v's fresh incarnation for restart round w, w-1 completed
// rounds on its clock.
func (rt *goRuntime) reboot(v, w int32) {
	rt.active = append(rt.active, v)
	go rt.start(v, w-1)
}

// start runs an incarnation of v from its first wake, startRound completed
// rounds on its clock: a spawned or rebooted vertex waits for its first
// round's wake like a parked one, so no vertex code runs between rounds.
func (rt *goRuntime) start(v, startRound int32) {
	<-rt.wake[v]
	runVertex(rt.c, v, rt.prog, rt.wg.Done, startRound)
}

// stop wakes the vertices an aborted run leaves parked, once, so that each
// sees the abort and unwinds; a run that finished has none.
func (rt *goRuntime) stop() { rt.wakeActive() }

// runGoroutines is the original engine: one goroutine per vertex, driven
// round by round by core.drive on the calling goroutine. Every live
// vertex is woken through its own channel and crosses one WaitGroup
// barrier per round, whether it has work or is merely waiting out a
// window.
func runGoroutines(g *graph.Graph, prog Program, opts Options) (*Result, error) {
	n := g.N()
	c := newCore(g, opts)
	rt := &goRuntime{c: c, prog: prog, wake: make([]chan struct{}, n), active: make([]int32, n)}
	c.rt = rt
	for v := 0; v < n; v++ {
		rt.wake[v] = make(chan struct{}, 1)
		rt.active[v] = int32(v)
		go rt.start(int32(v), 0)
	}
	maxRounds := opts.maxRounds(n)
	return c.finish(c.drive(rt, maxRounds), maxRounds)
}
