package engine

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"vavg/internal/graph"
)

// flood: every vertex learns the max ID within distance k in k+1 rounds.
func floodMax(k int) Program {
	return func(api *API) any {
		best := api.ID()
		for i := 0; i < k; i++ {
			api.Broadcast(best)
			for _, m := range api.Next() {
				if v, ok := m.Data.(int); ok && v > best {
					best = v
				}
			}
		}
		return best
	}
}

func TestFloodMaxOnRing(t *testing.T) {
	g := graph.Ring(8)
	res, err := Run(g, floodMax(4), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		want := 7
		if v == 2 { // distance from 2 to 7 is 3 <= 4: reachable
			want = 7
		}
		if res.Output[v] != want {
			t.Errorf("vertex %d output %v, want %d", v, res.Output[v], want)
		}
		if res.Rounds[v] != 5 { // 4 exchanges + 1 final round
			t.Errorf("vertex %d rounds %d, want 5", v, res.Rounds[v])
		}
	}
	if res.TotalRounds != 5 {
		t.Errorf("TotalRounds = %d, want 5", res.TotalRounds)
	}
	if got := res.VertexAverage(); got != 5 {
		t.Errorf("VertexAverage = %v, want 5", got)
	}
}

func TestRoundSumMatchesActivePerRound(t *testing.T) {
	g := graph.ForestUnion(200, 2, 7)
	// Vertices idle for a number of rounds proportional to their ID mod 17.
	prog := func(api *API) any {
		api.Idle(api.ID() % 17)
		return api.ID()
	}
	res, err := Run(g, prog, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, a := range res.ActivePerRound {
		sum += int64(a)
	}
	if sum != res.RoundSum {
		t.Errorf("sum of ActivePerRound = %d, RoundSum = %d", sum, res.RoundSum)
	}
	for v := 0; v < g.N(); v++ {
		if int(res.Rounds[v]) != v%17+1 {
			t.Errorf("vertex %d rounds = %d, want %d", v, res.Rounds[v], v%17+1)
		}
	}
}

func TestFinalBroadcastVisibleToNeighbors(t *testing.T) {
	g := graph.Path(3)
	// Vertex 0 terminates immediately with output "done"; vertex 1 waits
	// for the Final message; vertex 2 waits for vertex 1's relay.
	prog := func(api *API) any {
		switch api.ID() {
		case 0:
			return "done"
		case 1:
			for {
				for _, m := range api.Next() {
					if f, ok := m.Data.(Final); ok && m.From == 0 {
						return "saw:" + f.Output.(string)
					}
				}
			}
		default:
			for {
				for _, m := range api.Next() {
					if f, ok := m.Data.(Final); ok && m.From == 1 {
						return f.Output
					}
				}
			}
		}
	}
	res, err := Run(g, prog, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[1] != "saw:done" {
		t.Errorf("vertex 1 output %v", res.Output[1])
	}
	if res.Output[2] != "saw:done" {
		t.Errorf("vertex 2 output %v", res.Output[2])
	}
	// Vertex 0 terminates in round 1; vertex 1's first Next returns round-1
	// traffic, so it terminates in round 2; vertex 2 in round 3.
	if res.Rounds[0] != 1 || res.Rounds[1] != 2 || res.Rounds[2] != 3 {
		t.Errorf("rounds = %v, want [1 2 3]", res.Rounds)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	g := graph.ForestUnion(120, 3, 11)
	prog := func(api *API) any {
		// Randomized program: random idle then output a random value.
		api.Idle(api.Rand().Intn(5))
		return api.Rand().Int63()
	}
	r1, err := Run(g, prog, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(g, prog, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Output, r2.Output) {
		t.Error("outputs differ across identically-seeded runs")
	}
	if !reflect.DeepEqual(r1.Rounds, r2.Rounds) {
		t.Error("round counts differ across identically-seeded runs")
	}
	r3, err := Run(g, prog, Options{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(r1.Output, r3.Output) {
		t.Error("different seeds produced identical outputs (suspicious)")
	}
}

func TestSendIDAndPointToPoint(t *testing.T) {
	g := graph.Star(5)
	prog := func(api *API) any {
		if api.ID() == 0 {
			for k, nbr := range api.NeighborIDs() {
				api.Send(k, int(nbr)*10)
			}
			api.Next()
			return nil
		}
		msgs := api.Next()
		if len(msgs) != 1 {
			return -1
		}
		return msgs[0].Data
	}
	res, err := Run(g, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 5; v++ {
		if res.Output[v] != v*10 {
			t.Errorf("vertex %d got %v, want %d", v, res.Output[v], v*10)
		}
	}
}

func TestMaxRoundsAborts(t *testing.T) {
	g := graph.Ring(4)
	prog := func(api *API) any {
		for {
			api.Next()
		}
	}
	_, err := Run(g, prog, Options{MaxRounds: 50})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

// TestCrashRestartSchedule pins core.drive's round policy on a fixed
// schedule, in both forms: vertex v idles idle[v] rounds and returns its
// round count. Vertex 0 terminates in round 1, before its crash round 4,
// so the crash and its restart at 6 are no-ops. Vertex 1 crashes in round
// 3 and reboots in round 5, four rounds into its clock. Vertex 2 crashes
// forever in round 3, the round it would have terminated in. The step
// form fast-forwards from round 6 to 9 but stops at the event rounds 4,
// 5 and 6.
func TestCrashRestartSchedule(t *testing.T) {
	idle := []int{0, 6, 2, 8, 1}
	prog := func(api *API) any {
		api.Idle(idle[api.ID()])
		return api.Round()
	}
	step := func(api *API) StepFn {
		return func(api *API, _ []Msg) Step {
			if k := idle[api.ID()]; k > 0 {
				return Sleep(k, func(api *API, _ []Msg) Step { return Done(api.Round()) })
			}
			return Done(api.Round())
		}
	}
	g := graph.Path(len(idle))
	for _, f := range forms(prog, step) {
		adv := &Adversary{CrashAt: []int32{4, 3, 3, 0, 0}, RestartAt: []int32{6, 5, 0, 0, 0}}
		if err := adv.Normalize(g.N()); err != nil {
			t.Fatal(err)
		}
		res, err := RunSpec(g, f.spec, Options{Seed: 1, Adv: adv})
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		for _, c := range []struct {
			what      string
			got, want any
		}{
			{"ActivePerRound", res.ActivePerRound, []int{5, 4, 3, 1, 2, 2, 2, 2, 2, 1, 1}},
			{"Rounds", res.Rounds, []int32{1, 11, 3, 9, 2}},
			{"Output", res.Output, []any{0, 10, nil, 8, 1}},
			{"Crashed", res.Crashed, []bool{false, false, true, false, false}},
			{"Restarts", res.Restarts, 1},
			{"CrashedForever", res.CrashedForever, 1},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Errorf("%s: %s = %v, want %v", f.name, c.what, c.got, c.want)
			}
		}
	}
}

func TestVertexPanicPropagates(t *testing.T) {
	g := graph.Ring(4)
	prog := func(api *API) any {
		api.Idle(3)
		if api.ID() == 2 {
			panic("boom")
		}
		return nil
	}
	_, err := Run(g, prog, Options{})
	const want = "engine: vertex 2 panicked in round 4: boom"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// TestUnmapInPlace checks core.unmap on a permutation with two fixed
// points and cycles of lengths 2, 3 and 4, with and without the
// adversary's Crashed array: every entry of engine vertex v must land at
// index Orig[v], in the arrays the core already holds (the Result aliases
// them, so they are the run's own and need no copy).
func TestUnmapInPlace(t *testing.T) {
	orig := []int32{3, 5, 2, 7, 8, 1, 9, 0, 6, 4, 10} // (0 3 7) (1 5) (2) (4 8 6 9) (10)
	n := len(orig)
	for _, withCrashed := range []bool{false, true} {
		c := &core{
			orig:    orig,
			done:    make([]bool, n),
			rounds:  make([]int32, n),
			commits: make([]int32, n),
			output:  make([]any, n),
		}
		if withCrashed {
			c.crashed = make([]bool, n)
		}
		wantRounds, wantCommits := make([]int32, n), make([]int32, n)
		wantOutput, wantCrashed := make([]any, n), make([]bool, n)
		for v := range n {
			c.rounds[v], c.commits[v], c.output[v] = int32(v+1), int32(100+v), fmt.Sprint("out", v)
			o := orig[v]
			wantRounds[o], wantCommits[o], wantOutput[o] = c.rounds[v], c.commits[v], c.output[v]
			if withCrashed {
				c.crashed[v] = v%3 == 0
				wantCrashed[o] = c.crashed[v]
			}
		}
		rounds, crashed := c.rounds, c.crashed
		c.unmap()
		label := fmt.Sprintf("crashed=%v", withCrashed)
		if !reflect.DeepEqual(c.rounds, wantRounds) || !reflect.DeepEqual(c.commits, wantCommits) ||
			!reflect.DeepEqual(c.output, wantOutput) {
			t.Errorf("%s: unmapped (rounds, commits, output) = (%v, %v, %v), want (%v, %v, %v)",
				label, c.rounds, c.commits, c.output, wantRounds, wantCommits, wantOutput)
		}
		if withCrashed && !reflect.DeepEqual(c.crashed, wantCrashed) {
			t.Errorf("%s: unmapped Crashed = %v, want %v", label, c.crashed, wantCrashed)
		}
		if !withCrashed && c.crashed != nil {
			t.Errorf("%s: unmap made a Crashed array", label)
		}
		if &c.rounds[0] != &rounds[0] || withCrashed && &c.crashed[0] != &crashed[0] {
			t.Errorf("%s: unmap replaced the arrays instead of permuting them in place", label)
		}
	}
}

// TestMessageOverwriteWithinRound pins last-write-wins on one slot across
// lanes: vertex 0 writes its only slot twice in round 1 (or writes it and
// terminates, whose Final rewrites it), and vertex 1 must receive only the
// last payload, in both forms. Payloads live outside the tag (the int and
// any columns, the sender's finals entry), so a rewrite that changes lanes
// must still hide the earlier lane's payload.
func TestMessageOverwriteWithinRound(t *testing.T) {
	g := graph.Path(2)
	cases := []struct {
		name  string
		write func(api *API) // vertex 0's round-1 writes
		final bool           // vertex 0 terminates in round 1 with output "out"
		want  string
	}{
		{"any-any", func(api *API) { api.Send(0, "first"); api.Send(0, "second") }, false, "any:second"},
		{"any-int", func(api *API) { api.Send(0, "first"); api.SendInt(0, 2) }, false, "int:2"},
		{"int-any", func(api *API) { api.SendInt(0, 1); api.Send(0, "second") }, false, "any:second"},
		{"broadcast-int", func(api *API) { api.Broadcast("first"); api.BroadcastInt(2) }, false, "int:2"},
		{"int-broadcast", func(api *API) { api.BroadcastInt(1); api.Broadcast("second") }, false, "any:second"},
		{"broadcast-final", func(api *API) { api.Broadcast("first") }, true, "final:out"},
		{"int-final", func(api *API) { api.SendInt(0, 1) }, true, "final:out"},
	}
	describe := func(inbox []Msg) string {
		if len(inbox) != 1 {
			return fmt.Sprintf("%d messages", len(inbox))
		}
		m := inbox[0]
		if x, ok := m.AsInt(); ok {
			return fmt.Sprintf("int:%d", x)
		}
		if f, ok := m.Data.(Final); ok {
			return fmt.Sprintf("final:%v", f.Output)
		}
		return fmt.Sprintf("any:%v", m.Data)
	}
	for _, tc := range cases {
		prog := func(api *API) any {
			if api.ID() == 1 {
				return describe(api.Next())
			}
			tc.write(api)
			if tc.final {
				return "out"
			}
			api.Next()
			return nil
		}
		step := func(api *API) StepFn {
			if api.ID() == 1 {
				return func(*API, []Msg) Step {
					return Continue(func(_ *API, inbox []Msg) Step { return Done(describe(inbox)) })
				}
			}
			return func(api *API, _ []Msg) Step {
				tc.write(api)
				if tc.final {
					return Done("out")
				}
				return Continue(func(*API, []Msg) Step { return Done(nil) })
			}
		}
		for _, f := range forms(prog, step) {
			res, err := RunSpec(g, f.spec, Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, f.name, err)
			}
			if res.Output[1] != tc.want {
				t.Errorf("%s/%s: vertex 1 received %v, want %s", tc.name, f.name, res.Output[1], tc.want)
			}
		}
	}
}

func TestCommitRounds(t *testing.T) {
	g := graph.Path(3)
	prog := func(api *API) any {
		if api.ID() == 0 {
			api.Commit() // commits in round 1
			api.Commit() // second call must not move it
			api.Idle(4)  // keeps relaying
			return "zero"
		}
		api.Idle(2)
		return api.ID()
	}
	res, err := Run(g, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CommitRounds[0] != 1 {
		t.Errorf("vertex 0 commit round = %d, want 1", res.CommitRounds[0])
	}
	if res.Rounds[0] != 5 {
		t.Errorf("vertex 0 terminated at %d, want 5", res.Rounds[0])
	}
	// Vertices without Commit default to their termination round.
	for v := 1; v < 3; v++ {
		if res.CommitRounds[v] != res.Rounds[v] {
			t.Errorf("vertex %d commit %d != rounds %d", v, res.CommitRounds[v], res.Rounds[v])
		}
	}
	wantAvg := float64(1+3+3) / 3
	if res.CommitAverage() != wantAvg {
		t.Errorf("CommitAverage = %v, want %v", res.CommitAverage(), wantAvg)
	}
	if res.MaxCommit() != 3 {
		t.Errorf("MaxCommit = %d, want 3", res.MaxCommit())
	}
}

func TestAPIAccessors(t *testing.T) {
	g := graph.Ring(5)
	prog := func(api *API) any {
		if api.N() != 5 || api.Degree() != 2 {
			t.Errorf("N/Degree wrong")
		}
		nbrs := api.NeighborIDs()
		if api.NeighborIndex(nbrs[1]) != 1 || api.NeighborIndex(int32(api.ID())) != -1 {
			t.Errorf("NeighborIndex wrong")
		}
		if api.Round() != 0 {
			t.Errorf("Round before any Next should be 0")
		}
		api.SendID(int(nbrs[0]), "hi")
		got := api.Next()
		if api.Round() != 1 {
			t.Errorf("Round after Next should be 1")
		}
		return len(got)
	}
	res, err := Run(g, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every vertex sent exactly one point-to-point message (to its lowest
	// neighbor), so five messages arrived in total.
	total := 0
	for _, o := range res.Output {
		total += o.(int)
	}
	if total != g.N() {
		t.Errorf("received %d messages in total, want %d", total, g.N())
	}
	if res.Messages != int64(g.N())+int64(2*g.M()) { // sends + final broadcasts
		t.Errorf("Messages = %d, want %d", res.Messages, g.N()+2*g.M())
	}
}
