package engine

import (
	"errors"
	"fmt"
	"reflect"
	gort "runtime"
	"sort"
	"testing"

	"vavg/internal/graph"
)

// withShards sets GOMAXPROCS to n, which the step runner turns into one
// shard and one worker per processor (at most one per vertex), so the
// cross-shard paths (staged lanes, message wakes, pending drains) are
// exercised even on single-core test machines.
func withShards(t *testing.T, n int) {
	t.Helper()
	old := gort.GOMAXPROCS(n)
	t.Cleanup(func() { gort.GOMAXPROCS(old) })
}

// The synthetic programs cover the scheduling-relevant behaviors: dense
// flooding, long idle windows, mid-window message arrival, termination
// waves, randomized idling, and commitment.
func testPrograms() map[string]Program {
	return map[string]Program{
		"flood": func(api *API) any {
			best := api.ID()
			for i := 0; i < 4; i++ {
				api.Broadcast(best)
				for _, m := range api.Next() {
					if v, ok := m.Data.(int); ok && v > best {
						best = v
					}
				}
			}
			return best
		},
		"idle-mod": func(api *API) any {
			api.Idle(api.ID() % 17)
			return api.ID()
		},
		"idle-rand": func(api *API) any {
			api.Idle(api.Rand().Intn(9))
			return api.Rand().Int63()
		},
		"send-then-idle": func(api *API) any {
			// Low-ID vertices broadcast into their neighbors' idle windows
			// at staggered rounds; everyone idles for a long window and
			// must collect exactly the mid-window traffic.
			if api.ID()%3 == 0 {
				api.Idle(api.ID() % 5)
				api.Broadcast(api.ID())
			}
			got := 0
			for _, m := range api.Idle(12) {
				if _, ok := m.Data.(int); ok {
					got++
				}
			}
			return got
		},
		"mixed-lanes": func(api *API) any {
			// Exercises both payload lanes and the broadcast write-through
			// against the flat outbox: staged sends cancelled by a broadcast,
			// a broadcast partially overridden by a later send, double
			// broadcasts, alternating lanes across neighbors, and lane
			// traffic into idle windows. Message counts must stay identical
			// across forms through all of it.
			deg := api.Degree()
			var sum int64
			// Staged fast-lane sends superseded by a general-lane broadcast.
			for k := 0; k < deg; k++ {
				api.SendInt(k, int64(1000+k))
			}
			api.Broadcast("bc")
			for _, m := range api.Next() {
				if s, ok := m.Data.(string); ok && s == "bc" {
					sum++
				}
				if _, ok := m.AsInt(); ok {
					sum += 1 << 20 // cancelled sends must never arrive
				}
			}
			// Alternating lanes across neighbors in one round.
			for k := 0; k < deg; k++ {
				if k%2 == 0 {
					api.SendInt(k, int64(k+1))
				} else {
					api.Send(k, k+1)
				}
			}
			for _, m := range api.Next() {
				if x, ok := m.AsInt(); ok {
					sum += x
				} else if v, ok := m.Data.(int); ok {
					sum += int64(v)
				}
			}
			// Double broadcast (second write-through overwrites the first),
			// then a single staged send overriding one slot of it.
			//lint:ignore wiretag deliberate raw negative payload exercising lane equivalence, not a wire.Pack word
			api.BroadcastInt(-7)
			api.BroadcastInt(int64(api.ID()))
			if deg > 0 {
				api.Send(0, "override")
			}
			for _, m := range api.Next() {
				if x, ok := m.AsInt(); ok {
					sum += x
				}
				if s, ok := m.Data.(string); ok && s == "override" {
					sum += 5000
				}
			}
			// Lane traffic into staggered idle windows.
			if api.ID()%4 == 0 {
				api.BroadcastInt(int64(api.ID() + 1))
			}
			for _, m := range api.Idle(2 + api.ID()%3) {
				if x, ok := m.AsInt(); ok {
					sum += x
				}
			}
			return sum
		},
		"commit-relay": func(api *API) any {
			if api.ID()%2 == 0 {
				api.Commit()
			}
			api.Idle(3 + api.ID()%4)
			return api.Round()
		},
		"termination-wave": func(api *API) any {
			// Vertex 0 terminates immediately; everyone else terminates one
			// round after first hearing a Final, propagating a wave.
			if api.ID() == 0 {
				return 0
			}
			for {
				for _, m := range api.Next() {
					if f, ok := m.Data.(Final); ok {
						return f.Output.(int) + 1
					}
				}
			}
		},
	}
}

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"ring":    graph.Ring(64),
		"path":    graph.Path(33),
		"star":    graph.Star(40),
		"forests": graph.ForestUnion(150, 3, 7),
		"gnm":     graph.Gnm(90, 260, 5),
		"tree":    graph.RandomTree(77, 3),
		"empty":   graph.FromEdges(0, nil),
	}
}

// sortedNames returns m's keys in ascending order, so test subcases run in
// a deterministic sequence regardless of map-iteration order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func requireEqualResults(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Rounds, got.Rounds) {
		t.Errorf("%s: Rounds differ:\n want %v\n got  %v", label, want.Rounds, got.Rounds)
	}
	if !reflect.DeepEqual(want.CommitRounds, got.CommitRounds) {
		t.Errorf("%s: CommitRounds differ", label)
	}
	if !reflect.DeepEqual(want.Output, got.Output) {
		t.Errorf("%s: Outputs differ", label)
	}
	if !reflect.DeepEqual(want.ActivePerRound, got.ActivePerRound) {
		t.Errorf("%s: ActivePerRound differ:\n want %v\n got  %v", label, want.ActivePerRound, got.ActivePerRound)
	}
	if want.TotalRounds != got.TotalRounds || want.RoundSum != got.RoundSum || want.Messages != got.Messages {
		t.Errorf("%s: totals differ: want (%d,%d,%d) got (%d,%d,%d)", label,
			want.TotalRounds, want.RoundSum, want.Messages, got.TotalRounds, got.RoundSum, got.Messages)
	}
}

func mustRunGoroutines(t *testing.T, g *graph.Graph, prog Program, opts Options) *Result {
	t.Helper()
	res, err := runGoroutines(g, prog, opts)
	if err != nil {
		t.Fatalf("goroutines: %v", err)
	}
	return res
}

// form is one way to hand RunSpec a program, packed as a Spec.
type form struct {
	name string
	spec Spec
}

// forms pairs a blocking program with its step twin as single-form
// Specs, blocking first: the goroutine run is the reference the step run
// must reproduce.
func forms(prog Program, step StepProgram) []form {
	return []form{{"blocking", Spec{Program: prog}}, {"step", Spec{Step: step}}}
}

// specChoices lists every Spec a caller may build from a program with
// both forms: both forms together (RunSpec picks the step runner), then
// each form alone.
func specChoices(prog Program, step StepProgram) []form {
	return append([]form{{"both", Spec{Program: prog, Step: step}}}, forms(prog, step)...)
}

// TestSelect pins RunSpec's runner choice for a blocking-only Spec: it
// runs on the goroutine runtime whatever the graph size — both at n=4 and
// past the old 2^14 size switch.
func TestSelect(t *testing.T) {
	onGoroutines := func(api *API) any {
		_, ok := api.core.rt.(*goRuntime)
		return ok
	}
	for _, n := range []int{4, 1<<14 + 1} {
		res, err := RunSpec(graph.Ring(n), Spec{Program: onGoroutines}, Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for v, out := range res.Output {
			if out != true {
				t.Fatalf("n=%d: vertex %d did not run on goroutines", n, v)
			}
		}
	}
}

// TestScratchReuseIsClean exercises the sync.Pool run-scratch recycling:
// interleaved runs of different sizes and programs must reproduce the
// results of fresh first runs exactly, proving recycled tag slabs, done
// flags, and message counters carry no state between runs (shrinking
// reslices must zero the reused prefix).
func TestScratchReuseIsClean(t *testing.T) {
	progs := testPrograms()
	graphs := testGraphs()
	// Fresh baselines, one per (graph, program).
	type cellKey struct{ g, p string }
	base := map[cellKey]*Result{}
	order := []cellKey{}
	for gname := range graphs {
		for pname := range progs {
			order = append(order, cellKey{gname, pname})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].g != order[j].g {
			return order[i].g < order[j].g
		}
		return order[i].p < order[j].p
	})
	opts := Options{Seed: 13, MaxRounds: 1 << 20}
	for _, k := range order {
		base[k] = mustRunGoroutines(t, graphs[k.g], progs[k.p], opts)
	}
	// Re-run the whole matrix twice more: every run now draws recycled
	// scratch whose previous occupant had a different size or program.
	for pass := 0; pass < 2; pass++ {
		for i := len(order) - 1; i >= 0; i-- {
			k := order[i]
			rg := mustRunGoroutines(t, graphs[k.g], progs[k.p], opts)
			requireEqualResults(t, fmt.Sprintf("reuse%d/%s/%s vs fresh", pass, k.g, k.p), base[k], rg)
		}
	}
}

// TestCrossBackendEquivalence runs every synthetic program through
// RunSpec as every Spec choice — both forms, blocking only, step only —
// and requires the goroutine runner's blocking Result byte for byte:
// which runner and which form execute a program never changes the
// Result.
func TestCrossBackendEquivalence(t *testing.T) {
	withShards(t, 4)
	graphs, progs, sprogs := testGraphs(), testPrograms(), stepTestPrograms()
	for _, gname := range sortedNames(graphs) {
		g := graphs[gname]
		for _, pname := range sortedNames(progs) {
			for _, seed := range []int64{1, 42} {
				want := mustRunGoroutines(t, g, progs[pname], Options{Seed: seed})
				for _, f := range specChoices(progs[pname], sprogs[pname]) {
					label := fmt.Sprintf("%s/%s/%s/seed%d", f.name, gname, pname, seed)
					got, err := RunSpec(g, f.spec, Options{Seed: seed})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					requireEqualResults(t, label, want, got)
				}
			}
		}
	}
}

// The TestPool* tests below were written against the retired active-set
// pool backend. Its scheduler — sleeper timer heap, mid-window message
// wakes, all-idle fast-forward — now lives in the step runner, so the
// tests keep their names and pin the same behaviours on every Spec
// choice, with the goroutine runner as the oracle.

// TestPoolSingleShardEquivalence runs every step twin on one shard, where
// the step runner skips the cross-shard merge entirely, and requires the
// goroutines Result.
func TestPoolSingleShardEquivalence(t *testing.T) {
	withShards(t, 1)
	g := graph.ForestUnion(120, 3, 11)
	progs, sprogs := testPrograms(), stepTestPrograms()
	for _, pname := range sortedNames(progs) {
		want := mustRunGoroutines(t, g, progs[pname], Options{Seed: 5})
		got := mustRunStep(t, g, sprogs[pname], Options{Seed: 5})
		requireEqualResults(t, "1shard/"+pname, want, got)
	}
}

// idleWakeProgram sends "early" and "late" from vertex 0 of a 2-path into
// vertex 1's 14-round idle window; without a mid-window wake the second
// send would overwrite the first in the buffered slot.
func idleWakeProgram(api *API) any {
	if api.ID() == 0 {
		api.Idle(3)
		api.Send(0, "early")
		api.Idle(4)
		api.Send(0, "late")
		api.Idle(3)
		return nil
	}
	var got []string
	for _, m := range api.Idle(14) {
		if s, ok := m.Data.(string); ok {
			got = append(got, s)
		}
	}
	return fmt.Sprint(got)
}

// TestPoolIdleMessageWake pins the mid-window wake on every Spec choice:
// the idle window collects both messages in arrival order, and the whole
// Result matches the goroutines run.
func TestPoolIdleMessageWake(t *testing.T) {
	withShards(t, 3)
	g := graph.Path(2)
	want := mustRunGoroutines(t, g, idleWakeProgram, Options{Seed: 1})
	if want.Output[1] != "[early late]" {
		t.Errorf("idle window collected %v, want [early late]", want.Output[1])
	}
	for _, f := range specChoices(idleWakeProgram, idleWakeStep) {
		got, err := RunSpec(g, f.spec, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		requireEqualResults(t, "idle-wake/"+f.name, want, got)
	}
}

// TestPoolMaxRoundsAborts checks that every Spec choice aborts with
// ErrMaxRounds both for vertices that spin round after round and for
// vertices parked in an over-long idle window (the fast-forward path must
// stop at MaxRounds).
func TestPoolMaxRoundsAborts(t *testing.T) {
	withShards(t, 2)
	g := graph.Ring(8)
	specs := []struct {
		name string
		spec Spec
	}{
		{"spin", Spec{
			Program: func(api *API) any {
				for {
					api.Next()
				}
			},
			Step: func(api *API) StepFn {
				var fn StepFn
				fn = func(api *API, _ []Msg) Step { return Continue(fn) }
				return fn
			},
		}},
		{"park", Spec{
			Program: func(api *API) any {
				api.Idle(1 << 20)
				return nil
			},
			Step: func(api *API) StepFn {
				return func(api *API, _ []Msg) Step {
					return Sleep(1<<20, func(api *API, _ []Msg) Step { return Done(nil) })
				}
			},
		}},
	}
	for _, s := range specs {
		for _, f := range specChoices(s.spec.Program, s.spec.Step) {
			if _, err := RunSpec(g, f.spec, Options{MaxRounds: 40}); !errors.Is(err, ErrMaxRounds) {
				t.Errorf("%s as %s: err = %v, want ErrMaxRounds", s.name, f.name, err)
			}
		}
	}
}

// TestPoolVertexPanicPropagates checks that a panicking vertex fails the
// run with the same error on every Spec choice, naming the vertex by its
// original ID on a relabeled view and the round it was executing.
func TestPoolVertexPanicPropagates(t *testing.T) {
	withShards(t, 2)
	g := graph.Relabel(graph.RandomTree(40, 3))
	if g.Perm.New[3] == 3 {
		t.Fatal("relabeling keeps vertex 3 in place; pick a graph where it moves")
	}
	prog := func(api *API) any {
		api.Idle(2)
		if api.ID() == 3 {
			panic("boom")
		}
		return nil
	}
	step := func(api *API) StepFn {
		return func(api *API, _ []Msg) Step {
			return Sleep(2, func(api *API, _ []Msg) Step {
				if api.ID() == 3 {
					panic("boom")
				}
				return Done(nil)
			})
		}
	}
	const want = "engine: vertex 3 panicked in round 3: boom"
	for _, f := range specChoices(prog, step) {
		if _, err := RunSpec(g, f.spec, Options{Seed: 1}); err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", f.name, err, want)
		}
	}
}

// TestPanicNamesLowestOriginalID checks which vertex the error names when
// two vertices panic in the same round: the one with the lower original
// ID, in both forms, on the plain graph and on its RCM view, whose engine
// order puts the other one first.
func TestPanicNamesLowestOriginalID(t *testing.T) {
	withShards(t, 2)
	plain := graph.RingShuffled(64, 3)
	view := graph.Relabel(plain)
	if view.Perm.New[40] > view.Perm.New[5] {
		t.Fatal("the RCM view keeps vertex 5 ahead of vertex 40; pick two vertices it reorders")
	}
	boom := func(api *API) {
		if id := api.ID(); id == 5 || id == 40 {
			panic(fmt.Sprintf("boom %d", id))
		}
	}
	prog := func(api *API) any {
		boom(api)
		return nil
	}
	step := func(api *API) StepFn {
		return func(api *API, _ []Msg) Step {
			boom(api)
			return Done(nil)
		}
	}
	const want = "engine: vertex 5 panicked in round 1: boom 5"
	for _, g := range []*graph.Graph{plain, view} {
		for _, f := range forms(prog, step) {
			if _, err := RunSpec(g, f.spec, Options{Seed: 1}); err == nil || err.Error() != want {
				t.Errorf("%s on %s (relabeled %v): err = %v, want %q", f.name, g.Name, g.Perm != nil, err, want)
			}
		}
	}
}

// randRelayProgram idles a random number of rounds, broadcasts a PRNG
// draw, waits one round, and outputs another PRNG draw.
func randRelayProgram(api *API) any {
	api.Idle(api.Rand().Intn(6))
	api.Broadcast(api.Rand().Int())
	api.Next()
	return api.Rand().Int63()
}

// TestPoolDeterminismAcrossRuns runs the same randomized program twice as
// every Spec choice; each run must reproduce the goroutines Result.
func TestPoolDeterminismAcrossRuns(t *testing.T) {
	withShards(t, 4)
	g := graph.ForestUnion(180, 3, 17)
	want := mustRunGoroutines(t, g, randRelayProgram, Options{Seed: 42})
	for _, f := range specChoices(randRelayProgram, randRelayStep) {
		for run := 0; run < 2; run++ {
			got, err := RunSpec(g, f.spec, Options{Seed: 42})
			if err != nil {
				t.Fatalf("%s run %d: %v", f.name, run, err)
			}
			requireEqualResults(t, fmt.Sprintf("determinism/%s/run%d", f.name, run), want, got)
		}
	}
}
