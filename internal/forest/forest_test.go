package forest

import (
	"reflect"
	"testing"
	"testing/quick"

	"vavg/internal/check"
	"vavg/internal/engine"
	"vavg/internal/graph"
	"vavg/internal/hpartition"
)

func runFD(t *testing.T, g *graph.Graph, a int, eps float64) (*engine.Result, check.Orientation, map[graph.Edge]int) {
	t.Helper()
	res, err := engine.Run(g, Program(a, eps), engine.Options{Seed: 1})
	if err != nil {
		t.Fatalf("forest decomposition on %s: %v", g.Name, err)
	}
	orient, labels, err := Collect(g, res.Output)
	if err != nil {
		t.Fatalf("collect on %s: %v", g.Name, err)
	}
	return res, orient, labels
}

func TestDecompositionValidOnFamilies(t *testing.T) {
	cases := []struct {
		g *graph.Graph
		a int
	}{
		{graph.Ring(64), 2},
		{graph.Star(80), 1},
		{graph.ForestUnion(400, 3, 9), 3},
		{graph.TriangulatedGrid(10, 10), 3},
		{graph.Clique(16), 8},
		{graph.CompleteBinaryTree(127), 1},
	}
	for _, c := range cases {
		res, orient, labels := runFD(t, c.g, c.a, 2)
		A := hpartition.ParamA(c.a, 2)
		if err := check.ForestDecomposition(c.g, orient, labels, A); err != nil {
			t.Errorf("%s: %v", c.g.Name, err)
		}
		outDeg, _, err := check.AcyclicOrientation(c.g, orient, A, 0)
		if err != nil {
			t.Errorf("%s: %v", c.g.Name, err)
		}
		if outDeg > A {
			t.Errorf("%s: out-degree %d exceeds A=%d", c.g.Name, outDeg, A)
		}
		// Every vertex terminates two rounds after joining.
		h := HIndexes(res.Output)
		if err := check.HPartition(c.g, h, A); err != nil {
			t.Errorf("%s: %v", c.g.Name, err)
		}
		for v := 0; v < c.g.N(); v++ {
			if int(res.Rounds[v]) != h[v]+2 {
				t.Errorf("%s: vertex %d rounds = %d, want join(%d)+2", c.g.Name, v, res.Rounds[v], h[v])
			}
		}
	}
}

func TestVertexAveragedConstant(t *testing.T) {
	// Theorem 7.1: O(1) vertex-averaged complexity. With eps=2 the partition
	// contributes <= 2 on average plus 2 settle/final rounds.
	for _, n := range []int{500, 2000, 8000} {
		g := graph.ForestUnion(n, 2, 31)
		res, _, _ := runFD(t, g, 2, 2)
		if avg := res.VertexAverage(); avg > 4.5 {
			t.Errorf("n=%d: vertex-averaged %.2f, want <= 4.5", n, avg)
		}
	}
}

func TestNumForestsBounded(t *testing.T) {
	g := graph.ForestUnion(600, 4, 3)
	_, _, labels := runFD(t, g, 4, 1)
	maxLabel := 0
	for _, l := range labels {
		if l > maxLabel {
			maxLabel = l
		}
	}
	if A := hpartition.ParamA(4, 1); maxLabel > A {
		t.Errorf("max label %d exceeds A=%d", maxLabel, A)
	}
}

func TestEveryEdgeLabeledExactlyOnce(t *testing.T) {
	f := func(seed int64, aRaw uint8) bool {
		a := 1 + int(aRaw%3)
		g := graph.ForestUnion(120, a, seed)
		res, err := engine.Run(g, Program(a, 1), engine.Options{Seed: seed})
		if err != nil {
			return false
		}
		orient, labels, err := Collect(g, res.Output)
		if err != nil {
			return false
		}
		return len(orient) == g.M() && len(labels) == g.M() &&
			check.ForestDecomposition(g, orient, labels, hpartition.ParamA(a, 1)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestDecompOutHelper checks that Output reports the settled orientation:
// one label per outgoing edge in OutIdx, keyed by the out-neighbor's ID,
// and the labels 1..len(OutIdx) in OutIdx order.
func TestDecompOutHelper(t *testing.T) {
	g := graph.Path(4)
	prog := func(api *engine.API) any {
		d := NewDecomp(api, 1, 2)
		d.JoinAndSettle(api, 0)
		out := d.Output(api)
		if len(out.Labels) != len(d.OutIdx) {
			t.Errorf("vertex %d: %d labels for %d outgoing edges", api.ID(), len(out.Labels), len(d.OutIdx))
		}
		ids := api.NeighborIDs()
		for j, k := range d.OutIdx {
			if got := out.Labels[ids[k]]; got != int32(j+1) {
				t.Errorf("vertex %d: edge to %d labeled %d, want %d", api.ID(), ids[k], got, j+1)
			}
		}
		return out
	}
	if _, err := engine.Run(g, prog, engine.Options{}); err != nil {
		t.Fatal(err)
	}
}

// decompVertex drives the decomposition machine on the schedule ell from
// a test-local StepFn.
type decompVertex struct {
	d   Decomp
	ell int
	fn  engine.StepFn
}

func (v *decompVertex) turn(api *engine.API, inbox []engine.Msg) engine.Step {
	if wait, done := v.d.Turn(api, inbox, v.ell); !done {
		return engine.Sleep(wait, v.fn)
	}
	return engine.Done(v.d.Output(api))
}

// TestDecompStepStandalone runs the decomposition machine against
// JoinAndSettle on the parallelized schedule (ell 0) and on the worst-case
// one (ell the partition bound, where every vertex waits), and requires
// byte-identical Results. One graph is a relabeled view.
func TestDecompStepStandalone(t *testing.T) {
	const a, eps = 2, 1.0
	for _, g := range []*graph.Graph{graph.ForestUnion(200, a, 3), graph.Relabel(graph.ForestUnion(200, a, 3))} {
		for _, ell := range []int{0, hpartition.EllBound(g.N(), eps)} {
			prog := func(api *engine.API) any {
				d := NewDecomp(api, a, eps)
				d.JoinAndSettle(api, ell)
				return d.Output(api)
			}
			step := func(api *engine.API) engine.StepFn {
				v := &decompVertex{ell: ell}
				v.d.Tr.Init(api, a, eps)
				v.fn = v.turn
				return v.fn
			}
			want, err := engine.Run(g, prog, engine.Options{Seed: 1})
			if err != nil {
				t.Fatalf("%s ell=%d blocking: %v", g.Name, ell, err)
			}
			got, err := engine.RunSpec(g, engine.Spec{Step: step}, engine.Options{Seed: 1})
			if err != nil {
				t.Fatalf("%s ell=%d step: %v", g.Name, ell, err)
			}
			want.Shards, got.Shards = 0, 0
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s ell=%d: step Result differs from blocking (outputs equal: %v, rounds equal: %v)",
					g.Name, ell, reflect.DeepEqual(want.Output, got.Output), reflect.DeepEqual(want.Rounds, got.Rounds))
			}
			if ell > 0 && got.TotalRounds <= ell {
				t.Errorf("%s ell=%d: worst-case schedule ended in round %d", g.Name, ell, got.TotalRounds)
			}
		}
	}
}
