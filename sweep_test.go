package vavg

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

func TestSweepShapesAndSerialization(t *testing.T) {
	gen := func(n int) *Graph { return ForestUnion(n, 2, int64(n)) }
	sizes := []int{512, 2048, 8192}

	flat, err := ByName("arblinial-o1")
	if err != nil {
		t.Fatal(err)
	}
	sf, err := Sweep(flat, gen, sizes, []int64{1}, Params{Arboricity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sf.Points) != 3 {
		t.Fatalf("points = %d", len(sf.Points))
	}
	if e := sf.VertexAvgGrowth(); e > 0.15 {
		t.Errorf("flat algorithm fitted growth exponent %.3f, want ~0", e)
	}

	wc, err := ByName("arblinial-wc")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := Sweep(wc, gen, sizes, []int64{1}, Params{Arboricity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e := sw.VertexAvgGrowth(); e < 0.5 {
		t.Errorf("log-n baseline fitted growth exponent %.3f, want near 1", e)
	}

	// CSV round-trip sanity.
	var csvBuf bytes.Buffer
	if err := sf.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[0], "algorithm,") {
		t.Errorf("csv malformed:\n%s", csvBuf.String())
	}

	// JSON round-trip.
	var jsonBuf bytes.Buffer
	if err := sf.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var back SweepResult
	if err := json.Unmarshal(jsonBuf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Algorithm != "arblinial-o1" || len(back.Points) != 3 {
		t.Errorf("json round-trip lost data: %+v", back)
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	alg, _ := ByName("partition")
	gen := func(n int) *Graph { return Clique(32) }
	// Gross arboricity underestimate must surface as an error.
	if _, err := Sweep(alg, gen, []int{32}, []int64{1}, Params{Arboricity: 1, Eps: 0.5, MaxRounds: 500}); err == nil {
		t.Fatal("expected sweep error")
	}
}

// TestSweepRejectsDegenerateInputs pins the error contract: a nil
// generator or an empty size list must fail loudly instead of returning a
// degenerate empty sweep.
func TestSweepRejectsDegenerateInputs(t *testing.T) {
	alg, err := ByName("partition")
	if err != nil {
		t.Fatal(err)
	}
	gen := func(n int) *Graph { return ForestUnion(n, 2, 1) }
	if _, err := Sweep(alg, nil, []int{64}, nil, Params{}); err == nil || !strings.Contains(err.Error(), "nil graph generator") {
		t.Errorf("nil gen: err = %v, want nil-generator error", err)
	}
	if _, err := Sweep(alg, gen, nil, nil, Params{}); err == nil || !strings.Contains(err.Error(), "empty size list") {
		t.Errorf("empty sizes: err = %v, want empty-size-list error", err)
	}
	if _, err := Sweep(alg, func(n int) *Graph { return nil }, []int{64}, nil, Params{}); err == nil || !strings.Contains(err.Error(), "nil graph") {
		t.Errorf("nil graph: err = %v, want nil-graph error", err)
	}
}

// TestSweepMessagesIsMedian checks that a sweep point reports the median
// message count over its seeds, not the first seed's. mis-luby's coin
// flips make Messages differ across seeds, so the two disagree.
func TestSweepMessagesIsMedian(t *testing.T) {
	alg, err := ByName("mis-luby")
	if err != nil {
		t.Fatal(err)
	}
	g := ForestUnion(256, 3, 7)
	seeds := []int64{1, 2, 3}
	msgs := make([]int64, len(seeds))
	for i, s := range seeds {
		rep, err := alg.Run(g, Params{Arboricity: 3, Seed: s})
		if err != nil {
			t.Fatal(err)
		}
		msgs[i] = rep.Messages
	}
	sorted := append([]int64(nil), msgs...)
	slices.Sort(sorted)
	median := sorted[1]
	if median == msgs[0] {
		t.Fatalf("test needs seeds where median %d != first seed's %d", median, msgs[0])
	}
	res, err := Sweep(alg, func(int) *Graph { return g }, []int{256}, seeds, Params{Arboricity: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Points[0].Messages; got != median {
		t.Errorf("sweep Messages = %d, want median %d (per-seed: %v)", got, median, msgs)
	}
}

// TestSweepParallelMatchesSerial is the determinism contract of the
// parallel sweep scheduler: for every registered algorithm, a sweep run
// serially (SweepWorkers=1) and one fanned out over 8 workers must be
// byte-identical, because results are collected by (size, seed) index and
// every point derives its PRNG streams from its own seed.
func TestSweepParallelMatchesSerial(t *testing.T) {
	sizes := []int{64, 128}
	seeds := []int64{1, 2, 3}
	for _, alg := range Algorithms() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			t.Parallel()
			gen, a := func(n int) *Graph { return ForestUnion(n, 3, 7) }, 3
			if alg.RingOnly {
				gen, a = func(n int) *Graph { return Ring(n) }, 2
			}
			var outs [2][]byte
			for i, workers := range []int{1, 8} {
				res, err := Sweep(alg, gen, sizes, seeds, Params{Arboricity: a, SweepWorkers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				var buf bytes.Buffer
				if err := res.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				outs[i] = buf.Bytes()
			}
			if !bytes.Equal(outs[0], outs[1]) {
				t.Errorf("parallel sweep differs from serial:\nserial:   %s\nparallel: %s", outs[0], outs[1])
			}
		})
	}
}

// TestSweepGoldenOutput pins the exact CSV and JSON serializations of a
// fixed SweepResult, including the omitempty behavior of Colors and Size:
// both are present in CSV (as zeros) but dropped from JSON when zero.
func TestSweepGoldenOutput(t *testing.T) {
	res := &SweepResult{
		Algorithm: "demo",
		Family:    "forests",
		Points: []SweepPoint{
			{N: 64, M: 63, VertexAvg: 2.5, WorstCase: 4, Colors: 3, Size: 20, Messages: 500},
			{N: 128, M: 127, VertexAvg: 2.25, WorstCase: 5, Messages: 1100},
		},
	}
	const wantCSV = `algorithm,family,n,m,vertex_avg,worst_case,colors,size,messages
demo,forests,64,63,2.5000,4,3,20,500
demo,forests,128,127,2.2500,5,0,0,1100
`
	var csvBuf bytes.Buffer
	if err := res.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if csvBuf.String() != wantCSV {
		t.Errorf("csv golden mismatch:\ngot:\n%s\nwant:\n%s", csvBuf.String(), wantCSV)
	}
	const wantJSON = `{
  "algorithm": "demo",
  "family": "forests",
  "points": [
    {
      "n": 64,
      "m": 63,
      "vertexAvg": 2.5,
      "worstCase": 4,
      "colors": 3,
      "size": 20,
      "messages": 500
    },
    {
      "n": 128,
      "m": 127,
      "vertexAvg": 2.25,
      "worstCase": 5,
      "messages": 1100
    }
  ]
}
`
	var jsonBuf bytes.Buffer
	if err := res.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if jsonBuf.String() != wantJSON {
		t.Errorf("json golden mismatch:\ngot:\n%s\nwant:\n%s", jsonBuf.String(), wantJSON)
	}
}

// TestSweepNamesFamily checks that a sweep over several sizes names the
// graph family, not its first graph, on every CSV row and in the JSON.
func TestSweepNamesFamily(t *testing.T) {
	GraphCachePurge()
	defer GraphCachePurge()
	alg, err := ByName("partition")
	if err != nil {
		t.Fatal(err)
	}
	gen := CachedGen("forests", func(n int) *Graph { return ForestUnion(n, 3, 1) }, "a", 3, "seed", 1)
	res, err := Sweep(alg, gen, []int{500, 1000}, []int64{1}, Params{Arboricity: 3})
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf, jsonBuf bytes.Buffer
	if err := res.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")[1:]
	if len(rows) != 2 {
		t.Fatalf("csv has %d rows, want 2:\n%s", len(rows), csvBuf.String())
	}
	for _, row := range rows {
		if f := strings.Split(row, ",")[1]; f != "forests" {
			t.Errorf("csv row %q names family %q, want forests", row, f)
		}
	}
	if err := res.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var parsed struct{ Family string }
	if err := json.Unmarshal(jsonBuf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Family != "forests" {
		t.Errorf("json names family %q, want forests", parsed.Family)
	}
}

// TestCachedGenSharesGraphs checks the pointer contract of CachedGen: the
// same key and size yield the same *Graph, distinct keys do not.
func TestCachedGenSharesGraphs(t *testing.T) {
	GraphCachePurge()
	calls := 0
	gen := CachedGen("test-cachedgen", func(n int) *Graph {
		calls++
		return ForestUnion(n, 2, 5)
	}, "a", 2, "seed", 5)
	g1, g2 := gen(64), gen(64)
	if g1 != g2 {
		t.Error("same key+size returned distinct graphs")
	}
	if calls != 1 {
		t.Errorf("generator called %d times, want 1", calls)
	}
	other := CachedGen("test-cachedgen", func(n int) *Graph { return ForestUnion(n, 2, 6) }, "a", 2, "seed", 6)
	if other(64) == g1 {
		t.Error("distinct keys shared a cache entry")
	}
	GraphCachePurge()
}
