package coloring

import (
	"reflect"
	"slices"
	"testing"

	"vavg/internal/engine"
	"vavg/internal/graph"
)

// Step-form twins of the standalone sub-machine tests: each runs a value
// machine from a test-local vertex on the graphs of the blocking test (or
// of its blocking helper) and requires a byte-identical Result. One graph
// of each test is a relabeled view, where the machines' parent and member
// scans compare original IDs.

// requireSameResult runs the blocking and the step form of one program on
// g and fails unless their Results are identical.
func requireSameResult(t *testing.T, g *graph.Graph, prog engine.Program, step engine.StepProgram) {
	t.Helper()
	want, err := engine.Run(g, prog, engine.Options{Seed: 1})
	if err != nil {
		t.Fatalf("%s blocking: %v", g.Name, err)
	}
	got, err := engine.RunSpec(g, engine.Spec{Step: step}, engine.Options{Seed: 1})
	if err != nil {
		t.Fatalf("%s step: %v", g.Name, err)
	}
	want.Shards, got.Shards = 0, 0
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: step Result differs from blocking (outputs equal: %v, rounds equal: %v, messages %d vs %d)",
			g.Name, reflect.DeepEqual(want.Output, got.Output), reflect.DeepEqual(want.Rounds, got.Rounds),
			want.Messages, got.Messages)
	}
}

// allMembers lists every neighbor index of the calling vertex.
func allMembers(api *engine.API) []int {
	members := make([]int, api.Degree())
	for k := range members {
		members[k] = k
	}
	return members
}

// testMachine is what machineVertex drives of a coloring machine.
type testMachine interface {
	Turn(api *engine.API, inbox []engine.Msg, s Strays) (wait int, done bool)
	Color() int
}

// everyTurn drives a Linial machine, which takes a turn every round, as a
// testMachine.
type everyTurn struct{ *Linial }

func (l everyTurn) Turn(api *engine.API, inbox []engine.Msg, s Strays) (wait int, done bool) {
	return 1, l.Linial.Turn(api, inbox, s)
}

// machineVertex drives a coloring machine from a test-local StepFn,
// sleeping for the waits the machine returns. turns counts the turns
// after Start.
type machineVertex struct {
	m     testMachine
	turns int
	// ended, if set, sees the turn count as the vertex terminates.
	ended func(turns int)
	fn    engine.StepFn
}

// start continues a machine whose Start returned (wait, finished): the
// vertex terminates with its color at once if it finished, otherwise in
// the turn the machine ends in.
func (v *machineVertex) start(wait int, finished bool) engine.Step {
	if finished {
		return v.done()
	}
	v.fn = v.turn
	return engine.Sleep(wait, v.fn)
}

func (*machineVertex) Stray(*engine.API, engine.Msg) {}

func (v *machineVertex) turn(api *engine.API, inbox []engine.Msg) engine.Step {
	v.turns++
	if wait, done := v.m.Turn(api, inbox, v); !done {
		return engine.Sleep(wait, v.fn)
	}
	return v.done()
}

func (v *machineVertex) done() engine.Step {
	if v.ended != nil {
		v.ended(v.turns)
	}
	return engine.Done(v.m.Color())
}

// TestKWReduceStepStandalone runs KW on TestKWReduceStandalone's graphs.
// On Ring(30) with m = n there are five KW groups per phase, so a vertex
// hears colors from other groups' palettes, below and above its own.
func TestKWReduceStepStandalone(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Ring(30), graph.Grid(5, 6), graph.Clique(7), graph.Relabel(graph.Grid(5, 6))} {
		A := g.MaxDegree()
		m := g.N()
		prog := func(api *engine.API) any {
			return KWReduce(api, allMembers(api), api.ID(), m, A, NopSink)
		}
		step := func(api *engine.API) engine.StepFn {
			return func(api *engine.API, _ []engine.Msg) engine.Step {
				kw := new(KW)
				return (&machineVertex{m: kw}).start(kw.Start(api, allMembers(api), api.ID(), m, A))
			}
		}
		requireSameResult(t, g, prog, step)
	}
}

// TestKWStepTurns pins the turns KW sleeps through, on
// TestKWReduceStepStandalone's graphs: a vertex takes at most two turns
// per phase after Start, the phase boundary and its class round, where
// an every-round machine takes 2(A+1). The Result stays KWReduce's.
// Clique(7) has no phase (m = A+1), and its vertices finish in Start.
func TestKWStepTurns(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Ring(30), graph.Grid(5, 6), graph.Clique(7), graph.Relabel(graph.Grid(5, 6))} {
		A := g.MaxDegree()
		m := g.N()
		phases := len(kwPhases(m, A))
		turns := make([]int, g.N()) // by original ID; -1 until the vertex ends
		for id := range turns {
			turns[id] = -1
		}
		prog := func(api *engine.API) any {
			return KWReduce(api, allMembers(api), api.ID(), m, A, NopSink)
		}
		step := func(api *engine.API) engine.StepFn {
			return func(api *engine.API, _ []engine.Msg) engine.Step {
				kw := new(KW)
				id := api.ID()
				v := &machineVertex{m: kw, ended: func(n int) { turns[id] = n }}
				return v.start(kw.Start(api, allMembers(api), id, m, A))
			}
		}
		requireSameResult(t, g, prog, step)
		if lo, hi := slices.Min(turns), slices.Max(turns); lo < 0 || hi > 2*phases {
			t.Errorf("%s: vertices took %d to %d turns after Start over %d KW phases of %d rounds, want 0 to %d",
				g.Name, lo, hi, phases, 2*(A+1), 2*phases)
		}
	}
}

func TestDeltaPlus1OnSetStepStandalone(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Ring(40), graph.Clique(9), graph.TriangulatedGrid(6, 6), graph.Relabel(graph.TriangulatedGrid(6, 6))} {
		A := g.MaxDegree()
		prog := func(api *engine.API) any {
			return DeltaPlus1OnSet(api, allMembers(api), A, NopSink)
		}
		step := func(api *engine.API) engine.StepFn {
			return func(api *engine.API, _ []engine.Msg) engine.Step {
				dp := new(DeltaPlus1)
				return (&machineVertex{m: dp}).start(dp.Start(api, allMembers(api), A))
			}
		}
		requireSameResult(t, g, prog, step)
	}
}

func TestIteratedLinialStepStandalone(t *testing.T) {
	for _, g := range []*graph.Graph{graph.ForestUnion(200, 2, 3), graph.Relabel(graph.ForestUnion(200, 2, 3))} {
		A := g.MaxDegree() // orientation by ID has out-degree <= Delta here
		parents := func(api *engine.API) []int {
			var parents []int
			for k, id := range api.NeighborIDs() {
				if int(id) > api.ID() {
					parents = append(parents, k)
				}
			}
			return parents
		}
		prog := func(api *engine.API) any {
			return IteratedLinial(api, parents(api), A, NopSink)
		}
		step := func(api *engine.API) engine.StepFn {
			return func(api *engine.API, _ []engine.Msg) engine.Step {
				l := new(Linial)
				return (&machineVertex{m: everyTurn{l}}).start(1, l.Start(api, parents(api), A))
			}
		}
		requireSameResult(t, g, prog, step)
	}
}

// waveVertex drives a Wave machine from a test-local StepFn.
type waveVertex struct {
	w  Wave
	fn engine.StepFn
}

func (v *waveVertex) turn(api *engine.API, inbox []engine.Msg) engine.Step {
	if v.w.Turn(api, inbox) {
		return engine.Done(v.w.Color())
	}
	return engine.Continue(v.fn)
}

// TestRecolorWaveStepStandalone runs Wave against RecolorWave, oriented by
// ID: a vertex waits for its higher-ID neighbors, so the wave runs down
// from the local ID maxima, and every color is at least base.
func TestRecolorWaveStepStandalone(t *testing.T) {
	const base = 3
	for _, g := range []*graph.Graph{graph.Ring(30), graph.TriangulatedGrid(6, 6), graph.Relabel(graph.TriangulatedGrid(6, 6))} {
		parents := func(api *engine.API) []int {
			var parents []int
			for k, id := range api.NeighborIDs() {
				if int(id) > api.ID() {
					parents = append(parents, k)
				}
			}
			return parents
		}
		prog := func(api *engine.API) any {
			return RecolorWave(api, parents(api), base)
		}
		step := func(api *engine.API) engine.StepFn {
			return func(api *engine.API, _ []engine.Msg) engine.Step {
				v := new(waveVertex)
				if v.w.Start(parents(api), base) {
					return engine.Done(v.w.Color())
				}
				v.fn = v.turn
				return engine.Continue(v.fn)
			}
		}
		requireSameResult(t, g, prog, step)
	}
}

// cvParents returns TestCVForestsStandalone's forests: a vertex's
// out-edges to higher IDs, labeled by rank up to numLabels.
func cvParents(api *engine.API, numLabels int) []int {
	parentIdx := make([]int, numLabels+1)
	for j := range parentIdx {
		parentIdx[j] = -1
	}
	label := 0
	for k, id := range api.NeighborIDs() {
		if int(id) > api.ID() && label < numLabels {
			label++
			parentIdx[label] = k
		}
	}
	return parentIdx
}

// cvVertex drives a CV machine from a test-local StepFn.
type cvVertex struct {
	cv CV
	fn engine.StepFn
}

func (*cvVertex) Stray(*engine.API, engine.Msg) {}

func (v *cvVertex) turn(api *engine.API, inbox []engine.Msg) engine.Step {
	if v.cv.Turn(api, inbox, v) {
		return engine.Done(v.cv.Colors())
	}
	return engine.Continue(v.fn)
}

// TestCVForestsStepStandalone runs CV against CVForests on
// TestCVForestsStandalone's forests, and on a ring with one label, where
// every vertex but the maximum has a parent.
func TestCVForestsStepStandalone(t *testing.T) {
	cases := []struct {
		g      *graph.Graph
		labels int
	}{
		{graph.ForestUnion(300, 3, 21), 12},
		{graph.Ring(30), 1},
		{graph.Relabel(graph.ForestUnion(300, 3, 21)), 12},
	}
	for _, c := range cases {
		prog := func(api *engine.API) any {
			return CVForests(api, c.labels, cvParents(api, c.labels), NopSink)
		}
		step := func(api *engine.API) engine.StepFn {
			return func(api *engine.API, _ []engine.Msg) engine.Step {
				v := new(cvVertex)
				v.cv.Start(api, c.labels, cvParents(api, c.labels))
				v.fn = v.turn
				return engine.Continue(v.fn)
			}
		}
		requireSameResult(t, c.g, prog, step)
	}
}

// TestKWOutOfStepAnnouncements gives KW members that announce a color in
// every round, as a member rebooted out of step by a crash+restart
// scenario can. The middle vertex of a path chooses in the last round of
// its phase, after five rounds of announcements 0..4 from both ends, so
// more colors are taken than it has members; KW must still pick KWReduce's
// color.
func TestKWOutOfStepAnnouncements(t *testing.T) {
	g := graph.Path(3)
	const A, m, rounds = 2, 6, 6 // one phase of 2(A+1) rounds
	prog := func(api *engine.API) any {
		if api.ID() != 1 {
			for r := 0; r < rounds; r++ {
				BroadcastChosen(api, kwKind, int32(r))
				api.Next()
			}
			return -1
		}
		return KWReduce(api, allMembers(api), 5, m, A, NopSink)
	}
	step := func(api *engine.API) engine.StepFn {
		if api.ID() != 1 {
			r := 0
			var announce engine.StepFn
			announce = func(api *engine.API, _ []engine.Msg) engine.Step {
				if r == rounds {
					return engine.Done(-1)
				}
				BroadcastChosen(api, kwKind, int32(r))
				r++
				return engine.Continue(announce)
			}
			return announce
		}
		return func(api *engine.API, _ []engine.Msg) engine.Step {
			kw := new(KW)
			return (&machineVertex{m: kw}).start(kw.Start(api, allMembers(api), 5, m, A))
		}
	}
	requireSameResult(t, g, prog, step)
}
