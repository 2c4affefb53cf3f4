package vavg

import (
	"errors"
	"strings"
	"testing"

	"vavg/internal/engine"
)

func TestSimulateCustomProgram(t *testing.T) {
	// A user-written vertex program: 2-round neighborhood max.
	g := ForestUnion(200, 2, 5)
	prog := func(api *API) any {
		best := api.ID()
		for i := 0; i < 2; i++ {
			api.Broadcast(best)
			for _, m := range api.Next() {
				if v, ok := m.Data.(int); ok && v > best {
					best = v
				}
			}
		}
		return best
	}
	res, err := Simulate(g, prog, Params{})
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReport("custom", g, Params{}, res)
	if rep.VertexAvg != 3 || rep.WorstCase != 3 {
		t.Errorf("custom program accounting wrong: %+v", rep)
	}
}

func TestListColoringPublicAPI(t *testing.T) {
	g := TriangulatedGrid(10, 10)
	list := func(v int) []int {
		out := make([]int, g.Degree(v)+1)
		for i := range out {
			out[i] = 100 + 2*i // even colors only
		}
		return out
	}
	rep, cols, err := ListColoring(g, Params{}, list)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Colors < 2 {
		t.Errorf("suspicious color count %d", rep.Colors)
	}
	for _, c := range cols {
		if c%2 != 0 || c < 100 {
			t.Fatalf("color %d not from the supplied lists", c)
		}
	}
}

// TestEntryPointErrorsNameTheRun pins that ListColoring and Simulate wrap
// a failed run's engine error as Algorithm.Run does, naming the entry
// point and the graph, and keep the engine's error matchable with
// errors.Is.
func TestEntryPointErrorsNameTheRun(t *testing.T) {
	g := ForestUnion(200, 2, 1)
	list := func(v int) []int {
		out := make([]int, g.Degree(v)+1)
		for i := range out {
			out[i] = i
		}
		return out
	}
	_, _, err := ListColoring(g, Params{MaxRounds: 1}, list)
	if want := "vavg: list-coloring on " + g.Name + ": "; !errors.Is(err, engine.ErrMaxRounds) || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("ListColoring past MaxRounds: err = %v, want ErrMaxRounds prefixed %q", err, want)
	}
	boom := func(api *API) any {
		if api.ID() == 3 {
			panic("boom")
		}
		api.Next()
		return nil
	}
	_, err = Simulate(g, boom, Params{})
	if want := "vavg: simulate on " + g.Name + ": engine: vertex 3 panicked in round 1: boom"; err == nil || err.Error() != want {
		t.Errorf("Simulate with a panicking vertex: err = %v, want %q", err, want)
	}
}
