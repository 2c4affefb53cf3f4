package engine

import (
	"fmt"
	"math"
	"reflect"
	gort "runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"vavg/internal/graph"
)

// nopRuntime drives APIs by hand: tests and benchmarks below cross round
// barriers themselves (API.round / core.swap / collect), isolating the
// message path from the schedulers. No round loop drives it, so it leaves
// the round side of runtime to the nil embedded interface.
type nopRuntime struct{ runtime }

func (nopRuntime) next(a *API, buf []Msg) []Msg        { panic("nopRuntime.next") }
func (nopRuntime) idle(a *API, k int, buf []Msg) []Msg { panic("nopRuntime.idle") }
func (nopRuntime) delivered(*API, int32)               {}

// stubAPI builds an API wired exactly as runVertex does, with rt as c's
// runner, without spawning a goroutine.
func stubAPI(c *core, rt runtime, v int32) *API {
	c.rt = rt
	a := new(API)
	c.initAPI(a, v, 0)
	return a
}

// TestSendBoundsCheck pins the fail-fast contract: an out-of-range
// neighbor index must panic at the Send call with a clear message, not
// with an opaque slab index.
func TestSendBoundsCheck(t *testing.T) {
	g := graph.Path(3) // vertex 0 has degree 1
	for _, k := range []int{5, -1} {
		prog := func(api *API) any {
			if api.ID() == 0 {
				api.Send(k, "x")
			}
			api.Next()
			return nil
		}
		_, err := runGoroutines(g, prog, Options{Seed: 1})
		if err == nil {
			t.Fatalf("Send(%d) on degree-1 vertex: expected error", k)
		}
		want := fmt.Sprintf("neighbor index %d out of range [0,1)", k)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Send(%d) error = %q, want it to contain %q", k, err, want)
		}
	}
	// SendInt shares the bounds check.
	prog := func(api *API) any {
		if api.ID() == 0 {
			api.SendInt(2, 7)
		}
		api.Next()
		return nil
	}
	if _, err := runGoroutines(g, prog, Options{Seed: 1}); err == nil ||
		!strings.Contains(err.Error(), "neighbor index 2 out of range [0,1)") {
		t.Errorf("SendInt out of range error = %v", err)
	}
}

// TestMessageLanes checks lane selection end to end: fast-lane values
// round-trip through AsInt, general-lane values through Data, and a Final
// never reports as an integer.
func TestMessageLanes(t *testing.T) {
	g := graph.Path(2)
	prog := func(api *API) any {
		if api.ID() == 0 {
			//lint:ignore wiretag any int64 is legal on the raw lane; this exercises a negative non-Pack word
			api.SendInt(0, -42)
			api.Next()
			api.Send(0, "boxed")
			api.Next()
			return nil
		}
		var log []string
		for len(log) < 2 {
			for _, m := range api.Next() {
				if x, ok := m.AsInt(); ok {
					log = append(log, fmt.Sprintf("int:%d", x))
				} else if s, ok := m.Data.(string); ok {
					log = append(log, "any:"+s)
				}
			}
		}
		return strings.Join(log, ",")
	}
	res, err := runGoroutines(g, prog, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[1] != "int:-42,any:boxed" {
		t.Errorf("lane log = %q, want %q", res.Output[1], "int:-42,any:boxed")
	}
	if _, ok := (Msg{Data: Final{Output: 3}}).AsInt(); ok {
		t.Error("Final reported as fast-lane")
	}
}

// TestCellLayout pins the slot layout: a slot's tag is 4 bytes and holds
// no pointer, so the two per-edge tag slabs cost 8 bytes per directed edge
// and are never scanned by the GC. Fast-lane integers live in the int
// column, general-lane payloads in the any column and Finals in the
// per-vertex finals array instead.
func TestCellLayout(t *testing.T) {
	if size := unsafe.Sizeof(tag(0)); size != 4 {
		t.Errorf("tag is %d bytes, want 4", size)
	}
	if path := pointerPath(reflect.TypeOf(tag(0)), "tag"); path != "" {
		t.Errorf("tag holds a pointer-bearing field %s", path)
	}
}

// TestMaxRoundsFitsTheStamp pins the guard of the tags' 30-bit round
// stamp: maxRounds caps every budget, the caller's and the default, at
// the last round a stamp holds, so a run ends in ErrMaxRounds before a
// stamp could wrap to round 0, where collect would drop a real message
// silently. Budgets below the cap are unchanged.
func TestMaxRoundsFitsTheStamp(t *testing.T) {
	const ceiling = 1<<30 - 1
	if s := roundTag(ceiling) | tagFinal; s>>tagKindBits != ceiling || s&tagKindMask != tagFinal {
		t.Fatalf("round %d does not round-trip through its tag %#x", ceiling, uint32(s))
	}
	for _, tc := range []struct {
		opts Options
		n    int
		want int
	}{
		{Options{MaxRounds: math.MaxInt}, 10, ceiling},
		{Options{MaxRounds: ceiling + 1}, 10, ceiling},
		{Options{MaxRounds: ceiling}, 10, ceiling},
		{Options{MaxRounds: 5}, 10, 5},
		{Options{}, 1 << 28, ceiling},
		{Options{}, 10, 4*10 + 256*4 + 256},
	} {
		if got := tc.opts.maxRounds(tc.n); got != tc.want {
			t.Errorf("Options{MaxRounds: %d}.maxRounds(%d) = %d, want %d", tc.opts.MaxRounds, tc.n, got, tc.want)
		}
	}
}

// slotWrites returns the indices at which two snapshots of a slab differ;
// a nil before reads as the zeroed slab a lazily sized column starts as.
func slotWrites[T comparable](before, after []T) []int32 {
	var w []int32
	for i := range after {
		var b T
		if before != nil {
			b = before[i]
		}
		if b != after[i] {
			w = append(w, int32(i))
		}
	}
	return w
}

// TestSendsWriteSenderWindow pins the sender-indexed slot layout: a send
// writes exactly its own adjacency position, a broadcast and a Final
// exactly the sender's [Off[v], Off[v+1]) window, all in the send buffer,
// an integer the same slots of the int column and a Final or a boxed
// payload none of it, and collect writes no tag and no int of either
// side, yet every receiver reads each message back through Rev, once.
func TestSendsWriteSenderWindow(t *testing.T) {
	g := graph.ForestUnion(64, 3, 2)
	c := newCore(g, Options{})
	defer c.release()
	apis := make([]*API, g.N())
	for v := range apis {
		apis[v] = stubAPI(c, nopRuntime{}, int32(v))
	}
	type slabs struct {
		sendTags, recvTags []tag
		sendInts, recvInts []int64
	}
	snapshot := func() slabs {
		return slabs{slices.Clone(c.sendTags), slices.Clone(c.recvTags), slices.Clone(c.ints.send), slices.Clone(c.ints.recv)}
	}
	// barrier crosses a round by hand and collects every inbox, failing
	// if a collect writes a tag or an int; it returns the messages by
	// receiver.
	barrier := func(label string) map[int32]Msg {
		for _, a := range apis {
			a.round++
		}
		c.swap()
		before := snapshot()
		got := map[int32]Msg{}
		for _, a := range apis {
			for _, m := range a.collect(nil, a.round) {
				if _, dup := got[a.v]; dup {
					t.Errorf("%s: vertex %d received a second message %+v", label, a.v, m)
				}
				got[a.v] = m
			}
		}
		if after := snapshot(); !reflect.DeepEqual(before, after) {
			t.Errorf("%s: collect wrote send tags %v, receive tags %v, send ints %v, receive ints %v", label,
				slotWrites(before.sendTags, after.sendTags), slotWrites(before.recvTags, after.recvTags),
				slotWrites(before.sendInts, after.sendInts), slotWrites(before.recvInts, after.recvInts))
		}
		return got
	}
	var v int32
	for g.Degree(int(v)) < 3 {
		v++
	}
	lo, hi := g.Off[v], g.Off[v+1]
	var window []int32
	for p := lo; p < hi; p++ {
		window = append(window, p)
	}
	intMsg := func(x int64) Msg { return Msg{From: v, isInt: true, Int: x} }
	ops := []struct {
		name  string
		do    func(a *API)
		slots []int32           // the tags the op writes
		ints  []int32           // the int-column entries the op writes
		want  func(p int32) Msg // the message the receiver of slot p gets
	}{
		{"BroadcastInt", func(a *API) { a.BroadcastInt(7) }, window, window, func(int32) Msg { return intMsg(7) }},
		// Two rounds on, the same buffer still holds the broadcast's tags
		// and ints in the slots this round leaves alone; their stamps keep
		// them out.
		{"SendInt+Send", func(a *API) {
			a.SendInt(0, 5)
			a.Send(2, "x")
		}, []int32{lo, lo + 2}, []int32{lo}, func(p int32) Msg {
			if p == lo {
				return intMsg(5)
			}
			return Msg{From: v, Data: "x"}
		}},
		{"Broadcast", func(a *API) { a.Broadcast("y") }, window, nil, func(int32) Msg { return Msg{From: v, Data: "y"} }},
		{"final", func(a *API) { a.final(9) }, window, nil, func(int32) Msg { return Msg{From: v, Data: Final{Output: 9}} }},
	}
	for _, op := range ops {
		before := snapshot()
		op.do(apis[v])
		after := snapshot()
		if w := slotWrites(before.sendTags, after.sendTags); !slices.Equal(w, op.slots) {
			t.Errorf("%s by vertex %d wrote send tags %v, want %v", op.name, v, w, op.slots)
		}
		if w := slotWrites(before.sendInts, after.sendInts); !slices.Equal(w, op.ints) {
			t.Errorf("%s by vertex %d wrote send ints %v, want %v", op.name, v, w, op.ints)
		}
		if w := slotWrites(before.recvTags, after.recvTags); w != nil {
			t.Errorf("%s by vertex %d wrote receive tags %v", op.name, v, w)
		}
		if w := slotWrites(before.recvInts, after.recvInts); w != nil {
			t.Errorf("%s by vertex %d wrote receive ints %v", op.name, v, w)
		}
		want := map[int32]Msg{}
		for _, p := range op.slots {
			want[g.Adj[p]] = op.want(p)
		}
		if got := barrier(op.name); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: received %+v, want %+v", op.name, got, want)
		}
		// The tags stay in the slab, but the next round's collect must not
		// deliver them again.
		if got := barrier(op.name + " (quiet round)"); len(got) > 0 {
			t.Errorf("%s: a quiet round delivered %+v", op.name, got)
		}
	}
}

// TestSendStampParityAcrossShards covers the double-buffered send stamps.
// On two shards, u's worker can take u's round-w+1 turn, and send to v
// again, before v's worker collects v's round-w+1 inbox, which must still
// hold u's round-w message: a single send-stamp array shared by both
// rounds would then read u's stamp as w+1 and skip it. The first part
// drives that interleaving by hand; the second runs it on two shards of
// the step runner, where the race detector also sees a shared array, and
// requires the goroutine runner's Result.
func TestSendStampParityAcrossShards(t *testing.T) {
	g := graph.Path(4)
	c := newCore(g, Options{})
	apis := make([]*API, g.N())
	for v := range apis {
		apis[v] = stubAPI(c, nopRuntime{}, int32(v))
	}
	u, v := apis[1], apis[2]
	k := u.NeighborIndex(2)
	u.SendInt(k, 10) // round 1
	for w := int64(2); w <= 4; w++ {
		for _, a := range apis {
			a.round++
		}
		c.swap()
		// u's round-w turn runs before v collects the round w-1 sends, as
		// another shard's worker may order them.
		u.SendInt(k, 10*w)
		v.inbox = v.collect(v.inbox[:0], v.round)
		want := []Msg{{From: 1, isInt: true, Int: 10 * (w - 1)}}
		if !slices.Equal(v.inbox, want) {
			t.Errorf("round %d: vertex 2 collected %+v, want %+v", w, v.inbox, want)
		}
	}
	c.release()

	// End to end: every vertex of a path split into two shards sends its
	// round number to both neighbors each round and checks that the next
	// round's inbox holds both of them.
	withShards(t, 2)
	const rounds = 64
	h := graph.Path(64)
	check := func(api *API, inbox []Msg, r int) {
		if r == 1 {
			return
		}
		if len(inbox) != api.Degree() {
			panic(fmt.Sprintf("round %d: vertex %d got %d messages, want %d", r, api.ID(), len(inbox), api.Degree()))
		}
		for _, m := range inbox {
			if x, ok := m.AsInt(); !ok || x != int64(r-1) {
				panic(fmt.Sprintf("round %d: vertex %d got %+v from %d, want %d", r, api.ID(), m, m.From, r-1))
			}
		}
	}
	prog := func(api *API) any {
		var inbox []Msg
		for r := 1; r <= rounds; r++ {
			check(api, inbox, r)
			api.BroadcastInt(int64(r))
			inbox = api.Next()
		}
		return len(inbox)
	}
	step := func(api *API) StepFn {
		r := 0
		var fn StepFn
		fn = func(api *API, inbox []Msg) Step {
			r++
			if r > rounds {
				return Done(len(inbox))
			}
			check(api, inbox, r)
			api.BroadcastInt(int64(r))
			return Continue(fn)
		}
		return fn
	}
	want := mustRunGoroutines(t, h, prog, Options{Seed: 1})
	got := mustRunStep(t, h, step, Options{Seed: 1})
	if got.Shards != 2 {
		t.Fatalf("step run used %d shards, want 2", got.Shards)
	}
	requireEqualResults(t, "send stamps on two shards", want, got)
}

// pointerPath returns the path of the first pointer-bearing component of
// t, searching struct fields and array elements, or "" if t holds no
// pointer the GC would scan.
func pointerPath(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p := pointerPath(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		if t.Len() == 0 {
			return ""
		}
		return pointerPath(t.Elem(), path+"[0]")
	case reflect.Chan, reflect.Func, reflect.Interface, reflect.Map,
		reflect.Pointer, reflect.Slice, reflect.String, reflect.UnsafePointer:
		return path + " (" + t.String() + ")"
	}
	return ""
}

// TestFirstGeneralSendMidRun covers the lazily sized any column: every
// vertex sends only integers in rounds 1 and 2 and makes its first
// general-lane send in round 3 (even IDs one Send per neighbor, odd IDs a
// Broadcast), so the column is sized mid-run, by whichever vertex gets
// there first, while other shards' vertices send too. The step run on
// four shards must reproduce the goroutine run, and every round-4 message
// must carry the payload its sender wrote to that slot: both forms share
// the column, so only that check sees a payload stored at the wrong slot.
func TestFirstGeneralSendMidRun(t *testing.T) {
	withShards(t, 4)
	g := graph.ForestUnion(2000, 3, 5)
	type payload struct{ sum, k int64 }
	sendGeneral := func(api *API, sum int64) {
		if api.ID()%2 == 0 {
			for k := range api.NeighborIDs() {
				api.Send(k, payload{sum, int64(k)})
			}
			return
		}
		api.Broadcast(payload{sum, -1})
	}
	addInts := func(sum int64, inbox []Msg) int64 {
		for _, m := range inbox {
			x, ok := m.AsInt()
			if !ok {
				panic("general-lane message before round 3")
			}
			sum += x
		}
		return sum
	}
	describe := func(api *API, inbox []Msg) any {
		if len(inbox) != api.Degree() {
			panic(fmt.Sprintf("round 4 inbox has %d messages, want %d", len(inbox), api.Degree()))
		}
		var b strings.Builder
		for _, m := range inbox {
			p, ok := m.Data.(payload)
			if !ok {
				panic(fmt.Sprintf("round 4 message %+v is not a payload", m))
			}
			k := int64(-1) // a broadcast
			if m.From%2 == 0 {
				k = int64(graph.SearchAdj(g.Neighbors(int(m.From)), int32(api.ID())))
			}
			if p.k != k {
				panic(fmt.Sprintf("vertex %d got payload %+v from %d, want k=%d", api.ID(), p, m.From, k))
			}
			fmt.Fprintf(&b, "%d:%d/%d;", m.From, p.sum, p.k)
		}
		return b.String()
	}
	prog := func(api *API) any {
		sum := int64(api.ID())
		var inbox []Msg
		for r := 0; r < 2; r++ {
			sum = addInts(sum, inbox)
			api.BroadcastInt(sum)
			inbox = api.Next()
		}
		sendGeneral(api, addInts(sum, inbox))
		return describe(api, api.Next())
	}
	step := func(api *API) StepFn {
		sum := int64(api.ID())
		round := 0
		var fn StepFn
		fn = func(api *API, inbox []Msg) Step {
			round++
			if round == 4 {
				return Done(describe(api, inbox))
			}
			sum = addInts(sum, inbox)
			if round < 3 {
				api.BroadcastInt(sum)
			} else {
				sendGeneral(api, sum)
			}
			return Continue(fn)
		}
		return fn
	}
	want := mustRunGoroutines(t, g, prog, Options{Seed: 1})
	got := mustRunStep(t, g, step, Options{Seed: 1})
	if got.Shards != 4 {
		t.Fatalf("step run used %d shards, want 4", got.Shards)
	}
	requireEqualResults(t, "first general send in round 3", want, got)
	if want.Output[0] == "" {
		t.Error("vertex 0 received no round-4 payload")
	}
}

// TestMessagePathAllocs pins the steady-state message path to zero
// allocations: sending, rewriting a slot already written this round,
// broadcasting, collecting, and decoding fast-lane messages on a warm
// engine must not touch the heap, with and without a drop adversary on
// the core. Guards against reintroducing interface boxing or per-round
// buffers. Every received message is also checked against the round's
// last write to its slot.
func TestMessagePathAllocs(t *testing.T) {
	g := graph.Ring(4)
	dropAdv := &Adversary{Seed: 7, DropBar: ^uint64(0) / 2}
	if err := dropAdv.Normalize(g.N()); err != nil {
		t.Fatal(err)
	}
	for _, adv := range []*Adversary{nil, dropAdv} {
		name := "no adversary"
		if adv != nil {
			name = "drop adversary"
		}
		c := newCore(g, Options{Adv: adv})
		apis := make([]*API, g.N())
		for v := range apis {
			apis[v] = stubAPI(c, nopRuntime{}, int32(v))
		}
		round := func() {
			for _, a := range apis {
				a.round++
			}
			c.swap()
			for _, a := range apis {
				a.inbox = a.collect(a.inbox[:0], a.round)
			}
		}
		var bad int64
		// expect counts received fast-lane messages that are not the
		// sender's last write to the slot from -> to.
		expect := func(last func(from, to int32) int64) {
			for _, a := range apis {
				for _, m := range a.inbox {
					if x, ok := m.AsInt(); !ok || x != last(m.From, a.v) {
						bad++
					}
				}
			}
		}
		// Warm the inbox buffers so the measured rounds run at capacity.
		for _, a := range apis {
			a.BroadcastInt(0)
		}
		round()

		cases := []struct {
			name string
			body func()
		}{
			{"SendInt", func() {
				for _, a := range apis {
					a.SendInt(0, 7)
					a.SendInt(1, 9)
				}
				round()
				for _, a := range apis {
					for _, m := range a.inbox {
						if x, ok := m.AsInt(); !ok || x != 7 && x != 9 {
							bad++
						}
					}
				}
			}},
			{"SendIntTwice", func() {
				for _, a := range apis {
					a.SendInt(0, 7)
					a.SendInt(0, 9) // rewrites the slot: last write wins
				}
				round()
				expect(func(_, _ int32) int64 { return 9 })
			}},
			{"BroadcastInt", func() {
				for _, a := range apis {
					a.BroadcastInt(int64(a.v))
				}
				round()
				expect(func(from, _ int32) int64 { return int64(from) })
			}},
			{"BroadcastIntTwice", func() {
				for _, a := range apis {
					a.BroadcastInt(100)
					a.BroadcastInt(int64(a.v))
				}
				round()
				expect(func(from, _ int32) int64 { return int64(from) })
			}},
			{"SendPreboxed", func() {
				// The general lane itself is allocation-free once the payload
				// exists; only boxing a fresh value costs.
				for _, a := range apis {
					a.Send(0, apis[0]) // any pre-existing pointer payload
				}
				round()
			}},
			{"SendThenBroadcastInt", func() {
				for _, a := range apis {
					a.SendInt(0, 1)
					a.BroadcastInt(2) // overwrites the send
				}
				round()
				expect(func(_, _ int32) int64 { return 2 })
			}},
			{"BroadcastThenSendInt", func() {
				for _, a := range apis {
					a.BroadcastInt(1)
					a.SendInt(0, 3) // rewrites one slot of the broadcast
				}
				round()
				expect(func(from, to int32) int64 {
					if apis[from].NeighborIndex(to) == 0 {
						return 3
					}
					return 1
				})
			}},
			{"QuietRound", func() { round() }},
		}
		for _, tc := range cases {
			if allocs := testing.AllocsPerRun(50, tc.body); allocs != 0 {
				t.Errorf("%s/%s: %v allocs/op, want 0", name, tc.name, allocs)
			}
		}
		if bad != 0 {
			t.Errorf("%s: %d fast-lane messages decoded wrong", name, bad)
		}
		c.release()
	}
}

// TestSteadyStateAllocsIntegrated measures the whole engine, schedulers
// included: growing a run by 1000 extra broadcast rounds must add at most
// a fixed number of allocations (ActivePerRound growth and GC noise), i.e.
// the per-round message path allocates nothing in either form.
func TestSteadyStateAllocsIntegrated(t *testing.T) {
	withShards(t, 2)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := graph.Ring(8)
	prog := func(rounds int) Program {
		return func(api *API) any {
			var sum int64
			for i := 0; i < rounds; i++ {
				api.BroadcastInt(int64(i))
				for _, m := range api.Next() {
					x, _ := m.AsInt()
					sum += x
				}
			}
			return sum
		}
	}
	mallocs := func() uint64 {
		var ms gort.MemStats
		gort.ReadMemStats(&ms)
		return ms.Mallocs
	}
	// stepProg is the state-machine twin of prog: one broadcast per turn,
	// summing the previous turn's inbox, so the step scheduler's own round
	// loop is gated too.
	stepProg := func(rounds int) StepProgram {
		return func(api *API) StepFn {
			var sum int64
			i := 0
			var fn StepFn
			fn = func(api *API, inbox []Msg) Step {
				for _, m := range inbox {
					x, _ := m.AsInt()
					sum += x
				}
				if i == rounds {
					return Done(sum)
				}
				api.BroadcastInt(int64(i))
				i++
				return Continue(fn)
			}
			return fn
		}
	}
	check := func(name string, run func(rounds int) uint64) {
		run(1100) // warm the scratch pool at full size
		long := run(1100)
		short := run(100)
		var extra int64
		if long > short {
			extra = int64(long - short)
		}
		// 1000 extra rounds x 8 vertices = 8000 round-vertex steps; the
		// budget admits only slice-growth amortization, not per-step work.
		if extra > 128 {
			t.Errorf("%s: 1000 extra rounds cost %d allocs (long=%d short=%d), want <= 128",
				name, extra, long, short)
		}
	}
	// A crash-free drop adversary must not disturb the steady state
	// either: drop decisions are pure hashes and loss accounting is plain
	// counters, so the adversary-attached rounds run allocation-free too.
	// The nil-adversary runs below remain the gate for the fault-free hot
	// path the scenario layer promises not to touch.
	dropAdv := &Adversary{Seed: 7, DropBar: ^uint64(0) / 2}
	if err := dropAdv.Normalize(g.N()); err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name string
		run  func(rounds int, opts Options) (*Result, error)
	}{
		{"goroutines", func(rounds int, opts Options) (*Result, error) { return runGoroutines(g, prog(rounds), opts) }},
		{"step", func(rounds int, opts Options) (*Result, error) { return runStep(g, stepProg(rounds), opts) }},
	}
	for _, r := range runs {
		for _, adv := range []*Adversary{nil, dropAdv} {
			name := r.name
			if adv != nil {
				name += "(drop adversary)"
			}
			check(name, func(rounds int) uint64 {
				before := mallocs()
				if _, err := r.run(rounds, Options{Seed: 1, MaxRounds: 1 << 20, Adv: adv}); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return mallocs() - before
			})
		}
	}
}

// sharedMachineAllocs reports the fewest objects a warm step run of the
// shared-machine program allocated on g over three tries: every vertex
// broadcasts once, reads its full inbox and terminates, all vertices
// sharing one machine, so the program itself allocates nothing per vertex
// and what remains is the engine's own work (boxing each vertex's Final
// once, plus a fixed count per run). The minimum keeps a pool miss (a
// stale scratch left on another P) from passing for size-dependent work.
// Callers disable the GC, so the pool is not emptied between runs.
func sharedMachineAllocs(t *testing.T, g *graph.Graph) uint64 {
	t.Helper()
	read := func(api *API, inbox []Msg) Step {
		if len(inbox) != api.Degree() {
			panic("inbox lost a neighbor's broadcast")
		}
		return Done(nil)
	}
	broadcast := func(api *API, _ []Msg) Step {
		api.BroadcastInt(1)
		return Continue(read)
	}
	prog := func(*API) StepFn { return broadcast }
	best := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var ms gort.MemStats
		gort.ReadMemStats(&ms)
		before := ms.Mallocs
		if _, err := runStep(g, prog, Options{Seed: 1}); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		gort.ReadMemStats(&ms)
		best = min(best, ms.Mallocs-before)
	}
	return best
}

// TestStepRunAllocsIndependentOfDegree pins the graph-sized message
// buffers: every turn collects into its shard's turn inbox, carved from
// the run scratch with room for the shard's largest degree, and every
// cross-shard lane is a window of its lane slab, so a warm step run in
// which each vertex broadcasts once and reads its full inbox allocates the
// same number of objects on a ring (degree 2) as on a forest union of
// maximum degree 36. Buffers grown by append instead cost O(log deg)
// objects per shard or vertex and per lane.
func TestStepRunAllocsIndependentOfDegree(t *testing.T) {
	withShards(t, 2)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ring, forest := graph.Ring(4096), graph.ForestUnion(4096, 8, 3)
	if d := forest.MaxDegree(); d != 36 {
		t.Fatalf("forest union max degree %d, want 36", d)
	}
	sharedMachineAllocs(t, forest) // warm the scratch pool at the larger graph's size
	r, f := sharedMachineAllocs(t, ring), sharedMachineAllocs(t, forest)
	if diff := int64(f) - int64(r); diff > 32 || diff < -32 {
		t.Errorf("warm step run allocates %d objects on %s but %d on %s; want equal within 32",
			r, ring.Name, f, forest.Name)
	}
}

// TestStepRunAllocsIndependentOfN pins the shard-sized run scratch: each
// step shard carves its active, wake and turn-order lists and its timer
// and pending lists from recycled slabs, so beyond the one boxed Final per
// vertex, a warm step run allocates the same number of objects on 4,096
// vertices as on 65,536. Lists made per run and grown by append from empty
// instead cost O(log n) objects per shard and list.
func TestStepRunAllocsIndependentOfN(t *testing.T) {
	withShards(t, 2)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	small, large := graph.ForestUnion(4096, 3, 3), graph.ForestUnion(65536, 3, 3)
	sharedMachineAllocs(t, large) // warm the scratch pool at the larger graph's size
	s := int64(sharedMachineAllocs(t, small)) - int64(small.N())
	l := int64(sharedMachineAllocs(t, large)) - int64(large.N())
	t.Logf("objects beyond one per vertex: %d on %s, %d on %s", s, small.Name, l, large.Name)
	if diff := l - s; diff > 4 || diff < -4 {
		t.Errorf("beyond one object per vertex, a warm step run allocates %d objects on %s but %d on %s; want equal within 4",
			s, small.Name, l, large.Name)
	}
}

// describeInts renders an inbox of integer messages as "from:value" pairs.
func describeInts(inbox []Msg) string {
	var b strings.Builder
	for i, m := range inbox {
		if i > 0 {
			b.WriteByte(' ')
		}
		x, _ := m.AsInt()
		fmt.Fprintf(&b, "%d:%d", m.From, x)
	}
	return b.String()
}

// sleeperMail returns a blocking program and its step twin in which every
// vertex sends each neighbor k the value 1000·r + 100·ID + k in round r = 1
// and reports its round-2 inbox, and every third vertex, a sleeper, then
// idles through rounds 2–5 (Idle(4), Sleep(4)) while its neighbors send
// to it in each round of sendRounds; a sleeper also reports the inbox its
// window gathered. Round 5's mail is the wake round's, collected in round
// 6; earlier rounds' mail arrives mid-window.
func sleeperMail(sendRounds ...int) (Program, StepProgram) {
	sleeper := func(id int) bool { return id%3 == 0 }
	send := func(api *API, r int) {
		if r != 1 && !slices.Contains(sendRounds, r) {
			return
		}
		for k, u := range api.NeighborIDs() {
			if r == 1 || sleeper(int(u)) {
				api.SendInt(k, int64(1000*r+100*api.ID()+k))
			}
		}
	}
	prog := func(api *API) any {
		send(api, 1)
		first := describeInts(api.Next())
		if sleeper(api.ID()) {
			return first + " | " + describeInts(api.Idle(4))
		}
		for r := 3; r <= 6; r++ {
			api.Next()
			send(api, r)
		}
		return first
	}
	step := func(api *API) StepFn {
		var first string
		var fn StepFn
		fn = func(api *API, inbox []Msg) Step {
			r := api.Round() + 1
			switch {
			case r == 2:
				first = describeInts(inbox)
				if sleeper(api.ID()) {
					return Sleep(4, fn)
				}
			case r == 6 && sleeper(api.ID()):
				return Done(first + " | " + describeInts(inbox))
			case r == 6:
				return Done(first)
			default:
				send(api, r)
			}
			return Continue(fn)
		}
		return fn
	}
	return prog, step
}

// TestShardInboxPerTurn covers the step runner's collect just before each
// turn, into one turn inbox per shard. On a path, vertices 1 and 2 are
// adjacent, share shard 0 and are due in round 2: each must see only its
// own neighbors' mail, in neighbor order. Sleeper 3 gets mail in round 3,
// mid-window (across the shard cut from vertex 4 on two shards), and
// again in its wake round: its turn must see both, in arrival order, after
// round 2's. On one shard and on two, the step run must reproduce the
// goroutine run, whose inboxes are per-vertex windows.
func TestShardInboxPerTurn(t *testing.T) {
	g := graph.Path(8)
	prog, step := sleeperMail(3, 5)
	want := mustRunGoroutines(t, g, prog, Options{Seed: 1})
	for v, o := range []string{
		1: "0:1000 2:1200",
		2: "1:1101 3:1300",
		3: "2:1201 4:1400 | 2:3201 4:3400 2:5201 4:5400",
	} {
		if o != "" && want.Output[v] != o {
			t.Errorf("goroutines: vertex %d reported %q, want %q", v, want.Output[v], o)
		}
	}
	for _, shards := range []int{1, 2} {
		withShards(t, shards)
		got := mustRunStep(t, g, step, Options{Seed: 1})
		if got.Shards != shards {
			t.Fatalf("step run used %d shards, want %d", got.Shards, shards)
		}
		requireEqualResults(t, fmt.Sprintf("turn inboxes on %d shards", shards), want, got)
	}
}

// runOnColdScratch runs prog as a step form with opts on a run scratch
// fresh from scratchPool.New and returns that scratch. Two collections
// empty the pool, its victim cache included, and with the GC off nothing
// refills it, so the run's Get falls through to New.
func runOnColdScratch(t *testing.T, g *graph.Graph, prog StepProgram, opts Options) *runScratch {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	gort.GC()
	gort.GC()
	var fresh *runScratch
	defer func(old func() any) { scratchPool.New = old }(scratchPool.New)
	scratchPool.New = func() any {
		fresh = new(runScratch)
		return fresh
	}
	mustRunStep(t, g, prog, opts)
	if fresh == nil {
		t.Fatal("the run took a pooled scratch, not a fresh one")
	}
	return fresh
}

// TestInboxSlabOnlyForSleeperMail pins where a step run allocates its
// []Msg inbox slab: only for mail that must outlive a turn. Sleepers whose
// only mail arrives in their wake round collect it into the shard's turn
// inbox, so that run leaves the slab of a cold scratch unallocated. When
// sleepers get mail mid-window, on both shards in the same round, the run
// sizes the slab once, at 2|E| messages, and the inbox of every sleeper
// (one message per neighbor, so none spills) is its window of that one
// slab.
func TestInboxSlabOnlyForSleeperMail(t *testing.T) {
	withShards(t, 2)
	g := graph.Path(16)
	_, wakeOnly := sleeperMail(5)
	if s := runOnColdScratch(t, g, wakeOnly, Options{Seed: 1}); s.inbox != nil {
		t.Errorf("a run without mid-window mail allocated the inbox slab (%d messages)", len(s.inbox))
	}
	_, midWindow := sleeperMail(3)
	s := runOnColdScratch(t, g, midWindow, Options{Seed: 1})
	if len(s.inbox) != len(g.Adj) {
		t.Fatalf("inbox slab holds %d messages after mid-window mail, want %d", len(s.inbox), len(g.Adj))
	}
	windows := 0
	for v := range g.N() {
		a := &s.apis[v]
		if a.inbox == nil {
			continue
		}
		windows++
		lo, hi := g.Off[v], g.Off[v+1]
		if cap(a.inbox) != int(hi-lo) || unsafe.SliceData(a.inbox) != &s.inbox[lo] {
			t.Errorf("vertex %d's inbox is not its window [%d, %d) of the slab", v, lo, hi)
		}
	}
	if sleepers := (g.N() + 2) / 3; windows != sleepers {
		t.Errorf("%d vertices carved an inbox window, want the %d sleepers", windows, sleepers)
	}
}

// TestSleepFreeRunNotesNothing pins that deliveries are noted only from a
// run's first sleep round on: a two-shard run in which every vertex
// broadcasts in round 1 and terminates in round 2 leaves the lane slab of
// a cold scratch unallocated and never writes a shard's msgRound or
// pending window.
func TestSleepFreeRunNotesNothing(t *testing.T) {
	withShards(t, 2)
	g := graph.Path(16)
	read := func(*API, []Msg) Step { return Done(nil) }
	broadcast := func(api *API, _ []Msg) Step {
		api.BroadcastInt(1)
		return Continue(read)
	}
	s := runOnColdScratch(t, g, func(*API) StepFn { return broadcast }, Options{Seed: 1})
	if s.lanes != nil || s.laneSlab != nil {
		t.Errorf("a sleep-free run carved %d lanes over a %d-entry lane slab", len(s.lanes), len(s.laneSlab))
	}
	for lo := int32(0); lo < 16; lo += 8 {
		// Carving a shard of the same range again finds its windows.
		sh := &stepShard{lo: lo, hi: lo + 8}
		sh.carve(s, g, s.shardMsgs)
		noted := func(x int32) bool { return x != 0 }
		if slices.ContainsFunc(sh.msgRound, noted) || slices.ContainsFunc(sh.pending[:cap(sh.pending)], noted) {
			t.Errorf("shard [%d, %d) noted deliveries: msgRound %v, pending %v",
				lo, lo+8, sh.msgRound, sh.pending[:cap(sh.pending)])
		}
	}
}

// TestFirstSleepRoundMail covers the mail of a run's first sleep round,
// which its deliveries do not note: on a path, every vertex sends in
// round 2 and sleeps in the same turn, so round 3 has no turn unless the
// end-of-round poll queued the sleepers' drains. At 1, 2 and 4 shards the
// step run must reproduce the goroutine form, and on a cold scratch
// exactly the sleepers that got mail carve an inbox window. Two cases
// give sleepers mail only after their own turn: each vertex sends only to
// its lower neighbor, or every vertex sends to both and a drop adversary
// removes vertex 1's delivery to vertex 0, its only mail, leaving a
// stamped-empty tag beside vertex 1's delivered one.
func TestFirstSleepRoundMail(t *testing.T) {
	g := graph.Path(9)
	// Seed 1031 at this bar drops receiver slot 0 (1→0) in delivery
	// round 3 and nothing else in rounds 1–8.
	dropOne := &Adversary{Seed: 1031, DropBar: ^uint64(0) / 32}
	if err := dropOne.Normalize(g.N()); err != nil {
		t.Fatal(err)
	}
	type pin struct {
		v   int
		out string
	}
	for _, tc := range []struct {
		name string
		to   func(id, u int) bool
		adv  *Adversary
		pins []pin
		// noMail is the one sleeper that gets no mail, or -1.
		noMail int
	}{
		{"every neighbor", func(int, int) bool { return true }, nil,
			[]pin{{0, "1:100"}, {4, "3:304 5:504"}}, -1},
		{"after the sleeper's turn", func(id, u int) bool { return u < id }, nil,
			[]pin{{0, "1:100"}, {4, "5:504"}, {8, ""}}, 8},
		{"dropped", func(int, int) bool { return true }, dropOne,
			[]pin{{0, ""}, {1, "0:1 2:201"}}, 0},
	} {
		send := func(api *API) {
			for k, u := range api.NeighborIDs() {
				if tc.to(api.ID(), int(u)) {
					api.SendInt(k, int64(100*api.ID()+int(u)))
				}
			}
		}
		prog := func(api *API) any {
			api.Next()
			send(api)
			return describeInts(api.Idle(4))
		}
		wake := func(_ *API, inbox []Msg) Step { return Done(describeInts(inbox)) }
		sleep := func(api *API, _ []Msg) Step {
			send(api)
			return Sleep(4, wake)
		}
		step := func(*API) StepFn {
			return func(*API, []Msg) Step { return Continue(sleep) }
		}
		opts := Options{Seed: 1, Adv: tc.adv}
		want := mustRunGoroutines(t, g, prog, opts)
		for _, p := range tc.pins {
			if want.Output[p.v] != p.out {
				t.Errorf("%s: goroutines: vertex %d reported %q, want %q", tc.name, p.v, want.Output[p.v], p.out)
			}
		}
		if tc.adv != nil && want.Dropped != 1 {
			t.Errorf("%s: the adversary dropped %d deliveries, want 1", tc.name, want.Dropped)
		}
		for _, shards := range []int{1, 2, 4} {
			withShards(t, shards)
			got := mustRunStep(t, g, step, opts)
			requireEqualResults(t, fmt.Sprintf("%s on %d shards", tc.name, shards), want, got)
			s := runOnColdScratch(t, g, step, opts)
			for v := range g.N() {
				if drained := s.apis[v].inbox != nil; drained != (v != tc.noMail) {
					t.Errorf("%s on %d shards: vertex %d drained %v, want %v", tc.name, shards, v, drained, v != tc.noMail)
				}
			}
		}
	}
}

// TestIntColumnOnlyForIntSends pins where a run allocates its payload
// columns. A run whose vertices only return sends nothing but Finals,
// which write tags only, so it leaves the int, any and inbox slabs of a
// cold scratch unallocated. When vertices of both shards make their first
// SendInt in the same round, the run sizes the int column once, len(Adj)
// entries a side, every receiver reads the value its sender wrote, and the
// any column stays unallocated.
func TestIntColumnOnlyForIntSends(t *testing.T) {
	withShards(t, 2)
	g := graph.Path(16)
	returnOnly := func(*API) StepFn {
		return func(*API, []Msg) Step { return Done(nil) }
	}
	s := runOnColdScratch(t, g, returnOnly, Options{Seed: 1})
	for i := range s.tags {
		if len(s.tags[i]) != len(g.Adj) {
			t.Errorf("tag slab %d holds %d tags, want %d", i, len(s.tags[i]), len(g.Adj))
		}
	}
	if s.ints != nil || s.anys != nil || s.inbox != nil {
		t.Errorf("a run of Finals allocated %d int-column entries, %d any-column entries and %d inbox messages, want none",
			len(s.ints), len(s.anys), len(s.inbox))
	}

	read := func(api *API, inbox []Msg) Step {
		for _, m := range inbox {
			if x, ok := m.AsInt(); !ok || x != 100*int64(m.From)+int64(api.ID()) {
				panic(fmt.Sprintf("vertex %d read %+v", api.ID(), m))
			}
		}
		return Done(len(inbox))
	}
	sendOnce := func(*API) StepFn {
		return func(api *API, _ []Msg) Step {
			api.SendInt(0, 100*int64(api.ID())+int64(api.NeighborIDs()[0]))
			return Continue(read)
		}
	}
	s = runOnColdScratch(t, g, sendOnce, Options{Seed: 1})
	if len(s.ints) != 2*len(g.Adj) {
		t.Errorf("the int columns hold %d entries after one SendInt, want 2x%d", len(s.ints), len(g.Adj))
	}
	if s.anys != nil {
		t.Errorf("a run of SendInts allocated %d any-column entries", len(s.anys))
	}
}

// benchLane benchmarks one send primitive at a given degree: the center of
// a star sends or broadcasts to deg neighbors, the barrier is crossed by
// hand, and every leaf drains its single-slot inbox.
func benchLane(b *testing.B, deg int, send func(a *API, i int)) {
	g := graph.Star(deg + 1)
	c := newCore(g, Options{})
	defer c.release()
	center := stubAPI(c, nopRuntime{}, 0)
	leaves := make([]*API, deg)
	for i := range leaves {
		leaves[i] = stubAPI(c, nopRuntime{}, int32(i+1))
	}
	var sink int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send(center, i)
		center.round++
		c.swap()
		for _, l := range leaves {
			l.inbox = l.collect(l.inbox[:0], center.round)
			for _, m := range l.inbox {
				if x, ok := m.AsInt(); ok {
					sink += x
				} else if v, ok := m.Data.(int); ok {
					sink += int64(v)
				}
			}
		}
	}
	_ = sink
}

// BenchmarkLaneMerge measures the staged cross-shard path end to end: a
// ring's vertices broadcast (every slot write goes direct; shard-boundary
// deliveries also stage their receiver IDs in the lanes through
// stepRuntime.delivered) and every shard runs its applyLanes wake sweep. The warm path
// must be allocation-free — lanes are carved from the cut at setup, and
// pending lists reach capacity during the first iterations and are reused
// thereafter.
func BenchmarkLaneMerge(b *testing.B) {
	for _, nshards := range []int{2, 8, 64} {
		b.Run(fmt.Sprintf("shards=%d", nshards), func(b *testing.B) {
			g := graph.Ring(4096)
			c := newCore(g, Options{})
			defer c.release()
			n := int32(g.N())
			shardSize := (n + int32(nshards) - 1) / int32(nshards)
			rt := &stepRuntime{c: c, shardSize: shardSize, round: 1, noting: true}
			for lo := int32(0); lo < n; lo += shardSize {
				hi := lo + shardSize
				if hi > n {
					hi = n
				}
				rt.shards = append(rt.shards, &stepShard{
					idx: int32(len(rt.shards)), lo: lo, hi: hi,
					msgRound: make([]int32, hi-lo),
				})
			}
			rt.carveLanes()
			apis := make([]*API, n)
			for v := range apis {
				apis[v] = stubAPI(c, rt, int32(v))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, a := range apis {
					a.BroadcastInt(int64(i))
					a.round++
				}
				for _, s := range rt.shards {
					s.applyLanes(rt)
				}
				// Reset the wake bookkeeping runRound would have drained; the
				// slab double-buffer swap stands in for the round barrier.
				for _, s := range rt.shards {
					//lint:ignore shardseam benchmark harness drain at the simulated round barrier; no worker is running
					s.pending = s.pending[:0]
					clear(s.msgRound)
				}
				c.swap()
			}
		})
	}
}

// BenchmarkLaneFalseSharing measures what the lane header padding buys:
// two goroutines append receiver IDs through cursors that either sit on
// separate cache lines (padded: the real lane layout) or share one
// (packed: two bare 24-byte []int32 headers side by side). On a multicore host the packed
// variant pays coherence ping-pong on the shared line every append; with
// GOMAXPROCS=1 the goroutines serialize and the two variants coincide —
// the honest reading on a single-CPU container.
func BenchmarkLaneFalseSharing(b *testing.B) {
	const appendsPerOp = 1 << 12
	bench := func(b *testing.B, cursors [2]*[]int32) {
		for _, cur := range cursors {
			*cur = make([]int32, 0, appendsPerOp)
		}
		var wg sync.WaitGroup
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wg.Add(2)
			for w := 0; w < 2; w++ {
				go func(cur *[]int32) {
					defer wg.Done()
					*cur = (*cur)[:0]
					for k := int32(0); k < appendsPerOp; k++ {
						*cur = append(*cur, k)
					}
				}(cursors[w])
			}
			wg.Wait()
		}
	}
	b.Run("padded", func(b *testing.B) {
		lanes := make([]lane, 2)
		bench(b, [2]*[]int32{&lanes[0].buf, &lanes[1].buf})
	})
	b.Run("packed", func(b *testing.B) {
		var hdrs struct{ a, b []int32 }
		bench(b, [2]*[]int32{&hdrs.a, &hdrs.b})
	})
}

func BenchmarkMsgPath(b *testing.B) {
	for _, deg := range []int{2, 16, 128} {
		b.Run(fmt.Sprintf("Send/deg=%d", deg), func(b *testing.B) {
			benchLane(b, deg, func(a *API, i int) {
				for k := 0; k < deg; k++ {
					a.Send(k, i) // boxes the int: the cost the fast lane removes
				}
			})
		})
		b.Run(fmt.Sprintf("SendInt/deg=%d", deg), func(b *testing.B) {
			benchLane(b, deg, func(a *API, i int) {
				for k := 0; k < deg; k++ {
					a.SendInt(k, int64(i))
				}
			})
		})
		b.Run(fmt.Sprintf("Broadcast/deg=%d", deg), func(b *testing.B) {
			benchLane(b, deg, func(a *API, i int) { a.Broadcast(i) })
		})
		b.Run(fmt.Sprintf("BroadcastInt/deg=%d", deg), func(b *testing.B) {
			benchLane(b, deg, func(a *API, i int) { a.BroadcastInt(int64(i)) })
		})
	}
}

// TestMessageAccountingGolden pins the send path's absolute accounting.
// The cross-form suites compare the two runners with each other, but both
// share one write path, so a counting error in it moves both forms alike
// and only a fixed table can see it. Each cell is (graph, program,
// adversary) and must reproduce its Messages, Dropped, LostToCrash and
// RoundSum in both forms. The programs cover repeated sends to one slot,
// sends cancelled or overridden by broadcasts, double broadcasts and
// traffic into idle windows; the adversary drops a quarter of all
// deliveries and crashes every seventh vertex in round 3, rebooting every
// fourteenth in round 6.
func TestMessageAccountingGolden(t *testing.T) {
	withShards(t, 2)
	type counts struct{ messages, dropped, lost, roundSum int64 }
	// A send-path change that moves any of these numbers changes the
	// model's accounting; it is not a refactor.
	want := map[string]counts{
		"empty/flood/A":               {0, 0, 0, 0},
		"empty/flood/none":            {0, 0, 0, 0},
		"empty/mixed-lanes/A":         {0, 0, 0, 0},
		"empty/mixed-lanes/none":      {0, 0, 0, 0},
		"empty/send-then-idle/A":      {0, 0, 0, 0},
		"empty/send-then-idle/none":   {0, 0, 0, 0},
		"forests/flood/A":             {2707, 941, 638, 783},
		"forests/flood/none":          {4400, 0, 0, 750},
		"forests/mixed-lanes/A":       {2365, 833, 501, 1062},
		"forests/mixed-lanes/none":    {3735, 0, 0, 1050},
		"forests/send-then-idle/A":    {738, 247, 119, 1989},
		"forests/send-then-idle/none": {1181, 0, 0, 2050},
		"gnm/flood/A":                 {1684, 577, 360, 473},
		"gnm/flood/none":              {2600, 0, 0, 450},
		"gnm/mixed-lanes/A":           {1488, 498, 266, 641},
		"gnm/mixed-lanes/none":        {2204, 0, 0, 630},
		"gnm/send-then-idle/A":        {475, 164, 46, 1201},
		"gnm/send-then-idle/none":     {709, 0, 0, 1230},
		"path/flood/A":                {190, 83, 45, 176},
		"path/flood/none":             {320, 0, 0, 165},
		"path/mixed-lanes/A":          {180, 61, 33, 239},
		"path/mixed-lanes/none":       {272, 0, 0, 231},
		"path/send-then-idle/A":       {53, 21, 8, 443},
		"path/send-then-idle/none":    {85, 0, 0, 449},
		"ring/flood/A":                {385, 148, 97, 335},
		"ring/flood/none":             {640, 0, 0, 320},
		"ring/mixed-lanes/A":          {352, 118, 74, 453},
		"ring/mixed-lanes/none":       {544, 0, 0, 447},
		"ring/send-then-idle/A":       {104, 40, 18, 846},
		"ring/send-then-idle/none":    {172, 0, 0, 875},
		"star/flood/A":                {199, 69, 195, 209},
		"star/flood/none":             {390, 0, 0, 200},
		"star/mixed-lanes/A":          {221, 80, 135, 282},
		"star/mixed-lanes/none":       {360, 0, 0, 279},
		"star/send-then-idle/A":       {113, 36, 17, 532},
		"star/send-then-idle/none":    {130, 0, 0, 548},
		"tree/flood/A":                {463, 167, 125, 405},
		"tree/flood/none":             {760, 0, 0, 385},
		"tree/mixed-lanes/A":          {414, 151, 89, 549},
		"tree/mixed-lanes/none":       {648, 0, 0, 538},
		"tree/send-then-idle/A":       {122, 47, 21, 1027},
		"tree/send-then-idle/none":    {198, 0, 0, 1051},
	}
	adversaryA := func(t *testing.T, n int) *Adversary {
		t.Helper()
		adv := &Adversary{Seed: 7, DropBar: ^uint64(0) / 4}
		adv.CrashAt = make([]int32, n)
		adv.RestartAt = make([]int32, n)
		for v := 0; v < n; v += 7 {
			adv.CrashAt[v] = 3
			if v%14 == 0 {
				adv.RestartAt[v] = 6
			}
		}
		if err := adv.Normalize(n); err != nil {
			t.Fatal(err)
		}
		return adv
	}
	graphs, progs, sprogs := testGraphs(), testPrograms(), stepTestPrograms()
	for _, gname := range sortedNames(graphs) {
		g := graphs[gname]
		for _, pname := range []string{"flood", "mixed-lanes", "send-then-idle"} {
			for _, fault := range []string{"none", "A"} {
				var adv *Adversary
				if fault == "A" {
					adv = adversaryA(t, g.N())
				}
				key := gname + "/" + pname + "/" + fault
				for _, f := range forms(progs[pname], sprogs[pname]) {
					res, err := RunSpec(g, f.spec, Options{Seed: 3, MaxRounds: 4096, Adv: adv})
					if err != nil {
						t.Fatalf("%s/%s: %v", key, f.name, err)
					}
					got := counts{res.Messages, res.Dropped, res.LostToCrash, res.RoundSum}
					if w, ok := want[key]; !ok || got != w {
						t.Errorf("%s/%s: (Messages, Dropped, LostToCrash, RoundSum) = %v, want %v", key, f.name, got, w)
					}
				}
			}
		}
	}
}
