package bench

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// TestMain lets the test binary serve reps: Config.Run re-executes the
// running binary as each rep's child process.
func TestMain(m *testing.M) {
	if IsChild() {
		os.Exit(ChildMain())
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of the repository's BENCHMARK.json that the
// code must agree with.
type benchmarkJSON struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []Metric `json:"end_to_end"`
	PerLayer []Metric `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func names(ms []Metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func TestBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bj.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, bj.Workloads[i], w.Name, w.Why)
		}
	}
	if !reflect.DeepEqual(bj.EndToEnd, EndToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %+v\ncode           %+v", bj.EndToEnd, EndToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, PerLayer) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %+v\ncode           %+v", bj.PerLayer, PerLayer)
	}
	if !slices.Equal(bj.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
}

// TestSmoke runs every workload shrunk to about 4096 vertices, untraced
// and traced, and checks that each run is correct and emits exactly the
// metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	dir := t.TempDir()
	for _, w := range Workloads {
		for _, trace := range []bool{false, true} {
			want, wantReps := names(bj.EndToEnd), 2
			if trace {
				want, wantReps = names(bj.PerLayer), 4
			}
			r, err := Config{Seed: 1, Reps: 2, Trace: trace, WorkDir: dir}.Run(w.small())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !r.Correct() || r.Attempted != wantReps {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", w.Name, trace, r.Attempted, r.Failed, r.Problems)
			}
			line, err := r.summaryLine()
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Metrics map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			var emitted []string
			for name, v := range got.Metrics {
				emitted = append(emitted, name)
				if math.IsNaN(v.Value) || v.Unit == "" {
					t.Errorf("%s trace=%v: metric %s = %v %q", w.Name, trace, name, v.Value, v.Unit)
				}
			}
			sort.Strings(emitted)
			if !slices.Equal(emitted, want) {
				t.Errorf("%s trace=%v: emitted metrics\n%v\nBENCHMARK.json names\n%v", w.Name, trace, emitted, want)
			}
			if trace {
				if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
					t.Error(err)
				}
			}
		}
	}
}

func TestSummarizeMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		s := summarize("s", c.xs)
		if s.Q1 != c.q1 || s.Median != c.m || s.Q3 != c.q3 || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %g median %g q3 %g", c.xs, s, c.q1, c.m, c.q3)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// A root [0,100) with two overlapping children [10,40) and [30,60):
	// the root's self time counts the covered [10,60) once.
	spans := []Span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "kid", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "kid", Start: 30, End: 60},
	}
	self := selfTimes(spans)
	if self["root"] != 50 || self["kid"] != 60 {
		t.Errorf("selfTimes = %v, want root 50ns, kid 60ns", self)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runMedian, runIQR float64, failed int) string {
		metrics := map[string]Summary{}
		for _, m := range EndToEnd {
			metrics[m.Name] = Summary{Unit: m.Unit, Median: 1, Q1: 1, Q3: 1, N: 5}
		}
		metrics["run_s"] = Summary{Unit: "s", Median: runMedian, Q1: runMedian - runIQR/2, Q3: runMedian + runIQR/2, N: 5}
		path := filepath.Join(dir, name)
		rep := Report{Results: []Result{{Workload: "w", Attempted: 5, Failed: failed, Metrics: metrics}}}
		if err := writeReport(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1, 0.01, 0)
	bound := EndToEnd[1].Bound
	for _, c := range []struct {
		name      string
		b         string
		wantWorse int
	}{
		{"same", write("same.json", 1, 0.01, 0), 0},
		{"slower", write("slower.json", 1+2*bound, 0.01, 0), 1},
		{"noisy", write("noisy.json", 1, 2*bound, 0), 0},
		{"failed", write("failed.json", 1, 0.01, 1), 1},
	} {
		worse, err := compareFiles(base, c.b, io.Discard)
		if err != nil || worse != c.wantWorse {
			t.Errorf("%s: worse = %d, %v; want %d", c.name, worse, err, c.wantWorse)
		}
	}
	if v := verdict(EndToEnd[1], Summary{Median: 1, Q1: 0.5, Q3: 1.5}, Summary{Median: 1, Q1: 1, Q3: 1}); v != "unresolved" {
		t.Errorf("verdict on a spread past the bound = %q, want unresolved", v)
	}
}
