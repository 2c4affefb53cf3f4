package engine

import (
	"errors"
	"fmt"
	gort "runtime"
	"strings"
	"testing"

	"vavg/internal/graph"
)

// stepTestPrograms returns the step-form twin of every blocking program
// in testPrograms: turn-by-turn translations that must reproduce the
// blocking executions byte for byte (same PRNG draw order, same sends in
// the same rounds, same termination rounds).
func stepTestPrograms() map[string]StepProgram {
	return map[string]StepProgram{
		"flood": func(api *API) StepFn {
			best := api.ID()
			i := 0
			var fn StepFn
			fn = func(api *API, inbox []Msg) Step {
				for _, m := range inbox {
					if v, ok := m.Data.(int); ok && v > best {
						best = v
					}
				}
				if i == 4 {
					return Done(best)
				}
				api.Broadcast(best)
				i++
				return Continue(fn)
			}
			return fn
		},
		"idle-mod": func(api *API) StepFn {
			return func(api *API, _ []Msg) Step {
				if k := api.ID() % 17; k > 0 {
					return Sleep(k, func(api *API, _ []Msg) Step {
						return Done(api.ID())
					})
				}
				return Done(api.ID())
			}
		},
		"idle-rand": func(api *API) StepFn {
			return func(api *API, _ []Msg) Step {
				if k := api.Rand().Intn(9); k > 0 {
					return Sleep(k, func(api *API, _ []Msg) Step {
						return Done(api.Rand().Int63())
					})
				}
				return Done(api.Rand().Int63())
			}
		},
		"send-then-idle": func(api *API) StepFn {
			count := func(api *API, inbox []Msg) Step {
				got := 0
				for _, m := range inbox {
					if _, ok := m.Data.(int); ok {
						got++
					}
				}
				return Done(got)
			}
			broadcastThenWait := func(api *API, _ []Msg) Step {
				api.Broadcast(api.ID())
				return Sleep(12, count)
			}
			return func(api *API, _ []Msg) Step {
				if api.ID()%3 == 0 {
					if k := api.ID() % 5; k > 0 {
						return Sleep(k, broadcastThenWait)
					}
					api.Broadcast(api.ID())
				}
				return Sleep(12, count)
			}
		},
		"mixed-lanes": func(api *API) StepFn {
			deg := api.Degree()
			var sum int64
			after := func(api *API, inbox []Msg) Step {
				for _, m := range inbox {
					if x, ok := m.AsInt(); ok {
						sum += x
					}
				}
				return Done(sum)
			}
			t4 := func(api *API, inbox []Msg) Step {
				for _, m := range inbox {
					if x, ok := m.AsInt(); ok {
						sum += x
					}
					if s, ok := m.Data.(string); ok && s == "override" {
						sum += 5000
					}
				}
				if api.ID()%4 == 0 {
					api.BroadcastInt(int64(api.ID() + 1))
				}
				return Sleep(2+api.ID()%3, after)
			}
			t3 := func(api *API, inbox []Msg) Step {
				for _, m := range inbox {
					if x, ok := m.AsInt(); ok {
						sum += x
					} else if v, ok := m.Data.(int); ok {
						sum += int64(v)
					}
				}
				//lint:ignore wiretag deliberate raw negative payload exercising lane equivalence, not a wire.Pack word
				api.BroadcastInt(-7)
				api.BroadcastInt(int64(api.ID()))
				if deg > 0 {
					api.Send(0, "override")
				}
				return Continue(t4)
			}
			t2 := func(api *API, inbox []Msg) Step {
				for _, m := range inbox {
					if s, ok := m.Data.(string); ok && s == "bc" {
						sum++
					}
					if _, ok := m.AsInt(); ok {
						sum += 1 << 20
					}
				}
				for k := 0; k < deg; k++ {
					if k%2 == 0 {
						api.SendInt(k, int64(k+1))
					} else {
						api.Send(k, k+1)
					}
				}
				return Continue(t3)
			}
			return func(api *API, _ []Msg) Step {
				for k := 0; k < deg; k++ {
					api.SendInt(k, int64(1000+k))
				}
				api.Broadcast("bc")
				return Continue(t2)
			}
		},
		"commit-relay": func(api *API) StepFn {
			return func(api *API, _ []Msg) Step {
				if api.ID()%2 == 0 {
					api.Commit()
				}
				return Sleep(3+api.ID()%4, func(api *API, _ []Msg) Step {
					return Done(api.Round())
				})
			}
		},
		"termination-wave": func(api *API) StepFn {
			var fn StepFn
			fn = func(api *API, inbox []Msg) Step {
				for _, m := range inbox {
					if f, ok := m.Data.(Final); ok {
						return Done(f.Output.(int) + 1)
					}
				}
				return Continue(fn)
			}
			return func(api *API, _ []Msg) Step {
				if api.ID() == 0 {
					return Done(0)
				}
				return Continue(fn)
			}
		},
	}
}

func mustRunStep(t *testing.T, g *graph.Graph, prog StepProgram, opts Options) *Result {
	t.Helper()
	res, err := runStep(g, prog, opts)
	if err != nil {
		t.Fatalf("step: %v", err)
	}
	return res
}

// TestStepBackendEquivalence is the equivalence gate of the step runner:
// the step twin of every synthetic program must reproduce the goroutine
// runner's Result byte for byte on every test graph, both on one shard and
// on four.
func TestStepBackendEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4} {
		withShards(t, shards)
		sprogs := stepTestPrograms()
		graphs, progs := testGraphs(), testPrograms()
		for _, gname := range sortedNames(graphs) {
			for _, pname := range sortedNames(progs) {
				for _, seed := range []int64{1, 42} {
					label := fmt.Sprintf("%dshards/%s/%s/seed%d", shards, gname, pname, seed)
					rg := mustRunGoroutines(t, graphs[gname], progs[pname], Options{Seed: seed})
					rs := mustRunStep(t, graphs[gname], sprogs[pname], Options{Seed: seed})
					requireEqualResults(t, label, rg, rs)
				}
			}
		}
	}
}

// TestStepWorkerInvariance is the multicore determinism gate of the
// staged-lane step runner: a Result is a pure function of (graph,
// program, seed, adversary) — the shard layout is execution detail, not
// semantics. Every GOMAXPROCS P ∈ {2, 3, 4, 8} (P shards and workers; at
// P=3 the last shard is shorter than the others) must reproduce the
// single-shard run byte for byte, faultless and under a
// drop+crash+restart schedule. CI runs this under -race, so a racing
// cross-shard store is an error, not a flake.
func TestStepWorkerInvariance(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"forest": graph.ForestUnion(260, 3, 7),
		"gnm":    graph.Gnm(90, 260, 5),
	}
	progNames := []string{"flood", "send-then-idle", "mixed-lanes", "termination-wave"}
	advFor := func(t *testing.T, n int) *Adversary {
		t.Helper()
		adv := &Adversary{Seed: 0x5eed, DropBar: ^uint64(0) / 8}
		adv.CrashAt = make([]int32, n)
		adv.RestartAt = make([]int32, n)
		for v := 0; v < n; v += 29 {
			adv.CrashAt[v] = int32(2 + v%5)
			if v%58 == 0 {
				adv.RestartAt[v] = adv.CrashAt[v] + 4
			}
		}
		if err := adv.Normalize(n); err != nil {
			t.Fatal(err)
		}
		return adv
	}
	// Faulty runs can strand a termination wave behind a crashed-forever
	// vertex; the budget turns that into a deterministic DNF outcome that
	// must itself be invariant across layouts.
	run := func(t *testing.T, g *graph.Graph, prog StepProgram, adv *Adversary, procs int) (*Result, bool) {
		t.Helper()
		old := gort.GOMAXPROCS(procs)
		defer gort.GOMAXPROCS(old)
		res, err := runStep(g, prog, Options{Seed: 33, MaxRounds: 2048, Adv: adv})
		if res == nil {
			t.Fatalf("P=%d: %v", procs, err)
		}
		return res, err != nil
	}
	for _, gname := range sortedNames(graphs) {
		g := graphs[gname]
		for _, fault := range []string{"faultless", "dropcrash"} {
			var adv *Adversary
			if fault == "dropcrash" {
				adv = advFor(t, g.N())
			}
			for _, pname := range progNames {
				sprogs := stepTestPrograms()
				base, baseDNF := run(t, g, sprogs[pname], adv, 1)
				for _, p := range []int{2, 3, 4, 8} {
					res, dnf := run(t, g, stepTestPrograms()[pname], adv, p)
					label := fmt.Sprintf("%s/%s/%s/P%d", gname, fault, pname, p)
					if dnf != baseDNF {
						t.Errorf("%s: DNF %v, baseline %v", label, dnf, baseDNF)
					}
					requireEqualResults(t, label, base, res)
				}
			}
		}
	}
}

// TestStepShardsFollowWorkers pins the step runner's layout rule: one
// contiguous shard per worker, so Result.Shards equals GOMAXPROCS on a
// graph with enough vertices, is capped at n on a tiny one, and is 0 when
// the blocking form runs on goroutines.
func TestStepShardsFollowWorkers(t *testing.T) {
	fs := forms(testPrograms()["flood"], stepTestPrograms()["flood"])
	shards := func(g *graph.Graph, procs int, f form) int {
		t.Helper()
		old := gort.GOMAXPROCS(procs)
		defer gort.GOMAXPROCS(old)
		res, err := RunSpec(g, f.spec, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s n=%d P=%d: %v", f.name, g.N(), procs, err)
		}
		return res.Shards
	}
	blocking, step := fs[0], fs[1]
	ring := graph.Ring(50000)
	for _, p := range []int{1, 2, 3, 8} {
		if got := shards(ring, p, step); got != p {
			t.Errorf("Ring(50000) at P=%d: %d shards, want %d", p, got, p)
		}
	}
	if got := shards(graph.Path(2), 8, step); got != 2 {
		t.Errorf("Path(2) at P=8: %d shards, want 2", got)
	}
	if got := shards(graph.Ring(64), 8, blocking); got != 0 {
		t.Errorf("blocking form reports %d shards, want 0", got)
	}
}

// TestStepIdleMessageWake pins the double-buffer hazard for sleeping
// machines: messages flushed into the middle of a long sleep must be
// drained in their delivery round (or a later send would overwrite the
// slot) and arrive in delivery order at the wake turn.
func TestStepIdleMessageWake(t *testing.T) {
	withShards(t, 3)
	res := mustRunStep(t, graph.Path(2), idleWakeStep, Options{Seed: 1})
	if res.Output[1] != "[early late]" {
		t.Errorf("sleep window collected %v, want [early late]", res.Output[1])
	}
}

// idleWakeStep is the step twin of idleWakeProgram: on a 2-path, vertex 0
// sends "early" and "late" into vertex 1's 14-round sleep.
func idleWakeStep(api *API) StepFn {
	if api.ID() == 0 {
		return func(api *API, _ []Msg) Step {
			return Sleep(3, func(api *API, _ []Msg) Step {
				api.Send(0, "early")
				return Sleep(4, func(api *API, _ []Msg) Step {
					api.Send(0, "late")
					return Sleep(3, func(api *API, _ []Msg) Step {
						return Done(nil)
					})
				})
			})
		}
	}
	return func(api *API, _ []Msg) Step {
		return Sleep(14, func(api *API, inbox []Msg) Step {
			var got []string
			for _, m := range inbox {
				if s, ok := m.Data.(string); ok {
					got = append(got, s)
				}
			}
			return Done(fmt.Sprint(got))
		})
	}
}

// TestStepFastForward checks that an all-sleeping stretch is skipped
// without distorting the accounting: ActivePerRound still pays every
// round, exactly as the goroutine runner's round-by-round Idle does.
func TestStepFastForward(t *testing.T) {
	withShards(t, 2)
	g := graph.Ring(16)
	want := mustRunGoroutines(t, g, func(api *API) any {
		api.Idle(500)
		return api.Round()
	}, Options{Seed: 9})
	got := mustRunStep(t, g, func(api *API) StepFn {
		return func(api *API, _ []Msg) Step {
			return Sleep(500, func(api *API, _ []Msg) Step { return Done(api.Round()) })
		}
	}, Options{Seed: 9})
	requireEqualResults(t, "fast-forward", want, got)
	if len(got.ActivePerRound) != 501 {
		t.Errorf("ActivePerRound has %d entries, want 501", len(got.ActivePerRound))
	}
}

func TestStepAccountingIdentities(t *testing.T) {
	withShards(t, 4)
	g := graph.ForestUnion(300, 2, 13)
	res := mustRunStep(t, g, func(api *API) StepFn {
		return func(api *API, _ []Msg) Step {
			if k := api.ID() % 23; k > 0 {
				return Sleep(k, func(api *API, _ []Msg) Step { return Done(api.ID()) })
			}
			return Done(api.ID())
		}
	}, Options{Seed: 3})
	var sum int64
	for _, a := range res.ActivePerRound {
		sum += int64(a)
	}
	if sum != res.RoundSum {
		t.Errorf("sum of ActivePerRound = %d, RoundSum = %d", sum, res.RoundSum)
	}
	if res.VertexAverage() > float64(res.TotalRounds) {
		t.Errorf("VertexAverage %.2f exceeds TotalRounds %d", res.VertexAverage(), res.TotalRounds)
	}
}

func TestStepMaxRoundsAborts(t *testing.T) {
	withShards(t, 2)
	g := graph.Ring(8)
	spin := func(api *API) StepFn {
		var fn StepFn
		fn = func(api *API, _ []Msg) Step { return Continue(fn) }
		return fn
	}
	if _, err := runStep(g, spin, Options{MaxRounds: 40}); !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("spin err = %v, want ErrMaxRounds", err)
	}
	// Machines parked in an over-long sleep must be reachable by the abort
	// too (the fast-forward path must stop at MaxRounds).
	park := func(api *API) StepFn {
		return func(api *API, _ []Msg) Step {
			return Sleep(1<<20, func(api *API, _ []Msg) Step { return Done(nil) })
		}
	}
	if _, err := runStep(g, park, Options{MaxRounds: 40}); !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("park err = %v, want ErrMaxRounds", err)
	}
}

func TestStepVertexPanicPropagates(t *testing.T) {
	withShards(t, 2)
	g := graph.Ring(6)
	// A panic during a later turn: the first turn sleeps through rounds 2
	// and 3, so the second turn runs in round 3.
	turnPanic := func(api *API) StepFn {
		return func(api *API, _ []Msg) Step {
			return Sleep(2, func(api *API, _ []Msg) Step {
				if api.ID() == 3 {
					panic("boom")
				}
				return Done(nil)
			})
		}
	}
	const wantTurn = "engine: vertex 3 panicked in round 3: boom"
	if _, err := runStep(g, turnPanic, Options{Seed: 1}); err == nil || err.Error() != wantTurn {
		t.Fatalf("turn panic err = %v, want %q", err, wantTurn)
	}
	// A panic while building the machine counts as round 1.
	bootPanic := func(api *API) StepFn {
		if api.ID() == 2 {
			panic("boot boom")
		}
		return func(api *API, _ []Msg) Step { return Done(nil) }
	}
	const wantBoot = "engine: vertex 2 panicked in round 1: boot boom"
	if _, err := runStep(g, bootPanic, Options{Seed: 1}); err == nil || err.Error() != wantBoot {
		t.Fatalf("boot panic err = %v, want %q", err, wantBoot)
	}
	// Blocking round-crossing calls are a step-program bug, reported as a
	// vertex failure rather than a deadlock.
	callsNext := func(api *API) StepFn {
		return func(api *API, _ []Msg) Step {
			api.Next()
			return Done(nil)
		}
	}
	if _, err := runStep(g, callsNext, Options{Seed: 1}); err == nil || !strings.Contains(err.Error(), "API.Next") {
		t.Fatalf("Next-in-step err = %v, want API.Next guidance", err)
	}
}

func TestStepDeterminismAcrossRuns(t *testing.T) {
	withShards(t, 4)
	g := graph.ForestUnion(180, 3, 17)
	r1 := mustRunStep(t, g, randRelayStep, Options{Seed: 42})
	r2 := mustRunStep(t, g, randRelayStep, Options{Seed: 42})
	requireEqualResults(t, "step-determinism", r1, r2)
}

// randRelayStep is the step twin of randRelayProgram: a random sleep, a
// broadcast of a PRNG draw, one more round, and a PRNG draw as output.
func randRelayStep(api *API) StepFn {
	relay := func(api *API, _ []Msg) Step {
		api.Broadcast(api.Rand().Int())
		return Continue(func(api *API, _ []Msg) Step {
			return Done(api.Rand().Int63())
		})
	}
	return func(api *API, _ []Msg) Step {
		if k := api.Rand().Intn(6); k > 0 {
			return Sleep(k, relay)
		}
		return relay(api, nil)
	}
}

// TestStepScratchReuseIsClean interleaves step runs of different sizes and
// shard layouts, so the recycled API, StepFn, inbox and lane slabs of one
// graph and layout are reused by another: every run switches GOMAXPROCS
// (4 → 2 → 3 → 4 …), and its lanes are carved from a lane slab sized for
// a different cut. Results must match fresh first runs exactly.
func TestStepScratchReuseIsClean(t *testing.T) {
	withShards(t, 4)
	sprogs := stepTestPrograms()
	names := []string{"flood", "send-then-idle", "mixed-lanes", "termination-wave"}
	graphs := []*graph.Graph{graph.ForestUnion(300, 3, 7), graph.Ring(16), graph.Gnm(90, 260, 5)}
	opts := Options{Seed: 13}
	base := map[string]*Result{}
	for _, g := range graphs {
		for _, pn := range names {
			base[g.Name+"/"+pn] = mustRunStep(t, g, sprogs[pn], opts)
		}
	}
	layouts := []int{2, 3, 4}
	runs := 0
	for pass := 0; pass < 2; pass++ {
		for i := len(graphs) - 1; i >= 0; i-- {
			g := graphs[i]
			for _, pn := range names {
				p := layouts[runs%len(layouts)]
				runs++
				gort.GOMAXPROCS(p)
				r := mustRunStep(t, g, sprogs[pn], opts)
				requireEqualResults(t, fmt.Sprintf("reuse%d/P=%d/%s/%s", pass, p, g.Name, pn), base[g.Name+"/"+pn], r)
			}
		}
	}
}

// TestStepFallback covers the blocking-form path: RunSpec runs a Spec
// with no step form on goroutines and reproduces the goroutine runner's
// Result.
func TestStepFallback(t *testing.T) {
	withShards(t, 2)
	g := graph.Ring(32)
	prog := testPrograms()["flood"]
	want := mustRunGoroutines(t, g, prog, Options{Seed: 7})
	viaSpec, err := RunSpec(g, Spec{Program: prog}, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "runspec-fallback", want, viaSpec)
}

// TestRunSpec pins how RunSpec picks the runner from the Spec's form: a
// Spec with a step form runs on the step runner (one shard per worker), a
// blocking-only Spec runs on goroutines (0 shards) and reproduces the
// step run's Result, and an empty Spec is an error.
func TestRunSpec(t *testing.T) {
	withShards(t, 2)
	g := graph.Ring(48)
	prog, step := testPrograms()["flood"], stepTestPrograms()["flood"]
	want, err := RunSpec(g, Spec{Program: prog, Step: step}, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if want.Shards != 2 {
		t.Errorf("two-form Spec ran with %d shards, want the step runner's 2", want.Shards)
	}
	for _, f := range forms(prog, step) {
		got, err := RunSpec(g, f.spec, Options{Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		wantShards := 0 // a blocking-only Spec runs on goroutines
		if f.spec.Step != nil {
			wantShards = 2
		}
		if got.Shards != wantShards {
			t.Errorf("%s-only Spec ran with %d shards, want %d", f.name, got.Shards, wantShards)
		}
		requireEqualResults(t, "runspec/"+f.name, want, got)
	}
	if _, err := RunSpec(g, Spec{}, Options{}); err == nil {
		t.Error("empty Spec should fail")
	}
}

// sumVertex is a step vertex kept in its run's state slab: it adds up its
// ID and the sums its neighbors broadcast over ID%5 rounds.
type sumVertex struct {
	sum  int64
	left int32
}

// newSumStep returns a fresh StepProgram of sumVertex vertices.
func newSumStep() StepProgram {
	return func(api *API) StepFn {
		*State[sumVertex](api) = sumVertex{sum: int64(api.ID()), left: int32(api.ID() % 5)}
		return sumTurn
	}
}

func sumTurn(api *API, inbox []Msg) Step {
	v := State[sumVertex](api)
	for _, m := range inbox {
		if x, ok := m.AsInt(); ok {
			v.sum += x
		}
	}
	if v.left == 0 {
		return Done(v.sum)
	}
	v.left--
	api.BroadcastInt(v.sum)
	return Continue(sumTurn)
}

// TestStateSlabPerRun runs one Spec whose vertices live in the state slab
// twice in a row on graphs of different n, then twice at once: each run
// gets its own slab, sized for its graph, so every Result equals a fresh
// Spec's on the same graph.
func TestStateSlabPerRun(t *testing.T) {
	withShards(t, 4)
	graphs := []*graph.Graph{graph.Ring(40), graph.ForestUnion(300, 3, 7)}
	want := make([]*Result, len(graphs))
	for i, g := range graphs {
		want[i] = mustRunStep(t, g, newSumStep(), Options{Seed: 5})
	}
	spec := Spec{Step: newSumStep()}
	for i, g := range graphs {
		got, err := RunSpec(g, spec, Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		requireEqualResults(t, "in a row/"+g.Name, want[i], got)
	}
	got := make([]*Result, len(graphs))
	errs := make([]error, len(graphs))
	start := make(chan struct{})
	done := make(chan int)
	for i, g := range graphs {
		go func() {
			<-start
			got[i], errs[i] = RunSpec(g, spec, Options{Seed: 5})
			done <- i
		}()
	}
	close(start)
	for range graphs {
		<-done
	}
	for i, g := range graphs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		requireEqualResults(t, "at once/"+g.Name, want[i], got[i])
	}
}

// TestStateSecondTypePanics pins the one-type rule of the state slab: a
// run whose vertices ask for two types fails with a vertex panic that
// names both.
func TestStateSecondTypePanics(t *testing.T) {
	withShards(t, 2)
	mixed := func(api *API) StepFn {
		if api.ID()%2 == 1 {
			State[idleEntry](api)
			return func(*API, []Msg) Step { return Done(nil) }
		}
		return newSumStep()(api)
	}
	_, err := RunSpec(graph.Ring(12), Spec{Step: mixed}, Options{Seed: 1})
	if err == nil {
		t.Fatal("a run asking for two state types succeeded")
	}
	for _, name := range []string{"engine.sumVertex", "engine.idleEntry"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %s", err, name)
		}
	}
}
