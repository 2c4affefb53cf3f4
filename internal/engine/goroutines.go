package engine

import (
	"sync"

	"vavg/internal/graph"
)

type goRuntime struct {
	c    *core
	wg   sync.WaitGroup
	wake []chan struct{}
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
	if adv := rt.c.adv; adv != nil && adv.crashNow(a.v, a.round+1) {
		// The vertex was woken for its crash round: it counts as active in
		// it (matching ActivePerRound, which already includes this wake) but
		// executes nothing. The sentinel unwinds to runVertexFrom's recover.
		rt.c.rounds[a.v] = a.round + 1
		rt.c.crashed[a.v] = true
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

// runGoroutines is the original engine: one goroutine per vertex, a single
// coordinator goroutine driving global rounds. Every live vertex is woken
// through its own channel and crosses one WaitGroup barrier per round,
// whether it has work or is merely waiting out a window.
func runGoroutines(g *graph.Graph, prog Program, opts Options) (*Result, error) {
	n := g.N()
	maxRounds := opts.maxRounds(n)
	c := newCore(g, opts)
	rt := &goRuntime{c: c, wake: make([]chan struct{}, n)}
	for v := 0; v < n; v++ {
		rt.wake[v] = make(chan struct{}, 1)
	}

	rt.wg.Add(n)
	for v := 0; v < n; v++ {
		go runVertex(rt, c, int32(v), prog, rt.wg.Done)
	}

	active := make([]int32, n)
	for v := range active {
		active[v] = int32(v)
	}
	var restarts eventCursor
	if c.adv != nil {
		restarts = eventCursor{events: c.adv.restarts}
	}
	var activePerRound []int
	round := 0
	for {
		round++
		if !c.aborted {
			// An aborted run wakes its vertices once more only to unwind
			// them; that wake executes no round and gets no entry.
			activePerRound = append(activePerRound, len(active))
		}
		rt.wg.Wait() // all active vertices finished this round

		// Drop vertices that terminated this round.
		live := active[:0]
		for _, v := range active {
			if !c.done[v] {
				live = append(live, v)
			}
		}
		active = live
		if len(active) == 0 && (c.aborted || !restarts.pending()) {
			break
		}
		if round >= maxRounds && !c.aborted {
			c.aborted = true
		}
		c.swap()
		rt.wg.Add(len(active))
		for _, v := range active {
			rt.wake[v] <- struct{}{}
		}
		// Reboot vertices whose restart round is the one just woken: the
		// fresh incarnation is spawned after the buffer swap so its first
		// send writes the live send buffer, and it joins the active list so
		// the next ActivePerRound entry counts it. An aborted run reboots
		// nobody (matching the step runner's degradation accounting).
		if c.aborted {
			continue
		}
		for _, e := range restarts.take(int32(round + 1)) {
			v := e.v
			if !c.crashed[v] {
				// The vertex terminated before its scheduled crash round, so
				// the crash never happened and there is nothing to reboot.
				continue
			}
			c.done[v] = false
			c.crashed[v] = false
			c.gens[v]++
			rt.wg.Add(1)
			active = append(active, v)
			go runVertexFrom(rt, c, v, prog, rt.wg.Done, int32(round), c.gens[v])
		}
	}
	return c.finish(activePerRound, maxRounds)
}
