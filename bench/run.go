package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"vavg"
)

// Config is one benchmark invocation.
type Config struct {
	Seed int64
	// Seconds is the measuring budget per workload: another rep starts
	// while the mean rep so far would still end within it. Ignored when
	// Reps > 0.
	Seconds float64
	// Reps fixes the number of reps (of each kind, in a traced run).
	Reps int
	// Trace alternates untraced and traced reps and reports the per-layer
	// metrics instead of the end-to-end ones.
	Trace bool
	// WorkDir holds the input files and trace-<workload>.json.
	WorkDir string
}

// minReps is the fewest reps of each kind a time-budgeted run makes.
const minReps = 3

// inputBuilds is how many times a File workload's input file is built,
// each time in a fresh child process. The median build time is part of
// every rep's setup_s, so work moved from the reps into the file shows.
const inputBuilds = 5

// Result is one workload's outcome.
type Result struct {
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	// CPUs labels the numbers with the size of the box they came from.
	CPUs      int `json:"cpus"`
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Metrics holds the end-to-end metrics of an untraced run, or the
	// per-layer metrics of a traced one.
	Metrics  map[string]Summary `json:"metrics"`
	Counters Counters           `json:"counters"`
	// Shards is the step backend's shard count per engine run, per rep.
	Shards [][]int `json:"shards"`
	// InputBuildS is the median time to write and audit a File workload's
	// input file; setup_s includes it.
	InputBuildS float64 `json:"inputBuildS,omitempty"`
	// TraceOverhead is the traced reps' median run time over the
	// untraced reps' median run_s.
	TraceOverhead float64  `json:"traceOverhead,omitempty"`
	Problems      []string `json:"problems,omitempty"`
}

// Correct reports whether every rep ran, validated and reproduced the
// same counters.
func (r Result) Correct() bool { return r.Attempted > 0 && r.Failed == 0 }

// Report is the content of a results file (-out), the input of -compare.
type Report struct {
	Header  Header   `json:"header"`
	Results []Result `json:"results"`
}

// more reports whether to start another rep after done reps in elapsed.
func (c Config) more(done int, elapsed time.Duration) bool {
	kinds := 1
	if c.Trace {
		kinds = 2
	}
	if c.Reps > 0 {
		return done < c.Reps*kinds
	}
	if done < minReps*kinds {
		return true
	}
	return (elapsed + elapsed/time.Duration(done)).Seconds() <= c.Seconds
}

// Run measures one workload: reps one after another, each in a fresh
// child process, checking that every rep reproduces the first one's
// counters.
func (c Config) Run(w Workload) (Result, error) {
	if err := os.MkdirAll(c.WorkDir, 0o755); err != nil {
		return Result{}, err
	}
	dir, err := os.MkdirTemp(c.WorkDir, "vavgperf-")
	if err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(dir)
	exe, err := os.Executable()
	if err != nil {
		return Result{}, err
	}

	res := Result{Workload: w.Name, Trace: c.Trace, CPUs: runtime.NumCPU(), Metrics: map[string]Summary{}}
	var file string
	if w.File {
		file = filepath.Join(dir, w.Family+".csr")
		builds := make([]float64, inputBuilds)
		for i := range builds {
			r, err := runChild(exe, job{Workload: w, Seed: c.Seed, File: file, Build: true})
			if err != nil {
				return Result{}, fmt.Errorf("%s: input file: %w", w.Name, err)
			}
			builds[i] = r.SetupS
		}
		res.InputBuildS = summarize("s", builds).Median
	}
	var plain, traced []repResult
	haveRef := false
	start := time.Now()
	for i := 0; c.more(i, time.Since(start)); i++ {
		isTraced := c.Trace && i%2 == 1
		kind := "untraced"
		if isTraced {
			kind = "traced"
		}
		r, err := runChild(exe, job{Workload: w, Seed: c.Seed, File: file, Trace: isTraced})
		res.Attempted++
		if isTraced && r.Layers != nil {
			for k := range r.Spans {
				r.Spans[k].Rep = len(traced)
			}
			traced = append(traced, r)
		}
		if err != nil {
			res.Failed++
			res.Problems = append(res.Problems, fmt.Sprintf("rep %d (%s): %v", i, kind, err))
			continue
		}
		res.Shards = append(res.Shards, r.Shards)
		if !haveRef {
			haveRef, res.Counters = true, r.Counters
		} else if r.Counters != res.Counters {
			res.Failed++
			res.Problems = append(res.Problems, fmt.Sprintf("rep %d (%s): counters %+v differ from the first rep's %+v", i, kind, r.Counters, res.Counters))
			continue
		}
		if !isTraced {
			r.SetupS += res.InputBuildS
			plain = append(plain, r)
		}
	}

	if c.Trace {
		// Summarize whatever the children measured, so a layer metric
		// missing from PerLayer shows up (with no unit) instead of vanishing.
		samples := map[string][]float64{}
		for _, r := range traced {
			for name, v := range r.Layers {
				samples[name] = append(samples[name], v)
			}
		}
		for name, xs := range samples {
			res.Metrics[name] = summarize(unitOf(PerLayer, name), xs)
		}
		runS := summarize("s", collect(plain, func(r repResult) float64 { return r.RunS }))
		if tracedRunS := summarize("s", collect(traced, func(r repResult) float64 { return r.RunS })); runS.Median > 0 {
			res.TraceOverhead = tracedRunS.Median / runS.Median
		}
		if err := writeTrace(filepath.Join(c.WorkDir, "trace-"+w.Name+".json"), traced); err != nil {
			return res, err
		}
		return res, nil
	}
	res.Metrics["setup_s"] = summarize("s", collect(plain, func(r repResult) float64 { return r.SetupS }))
	res.Metrics["run_s"] = summarize("s", collect(plain, func(r repResult) float64 { return r.RunS }))
	res.Metrics["peak_rss_mib"] = summarize("MiB", collect(plain, func(r repResult) float64 { return r.PeakRSSMiB }))
	return res, nil
}

func collect(reps []repResult, f func(repResult) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return xs
}

// writeInput materializes a File workload's graph as a raw CSR file and
// audits it end to end; the reps then only load it.
func writeInput(w Workload, seed int64, path string) error {
	g, err := vavg.MakeFamily(w.Family, w.N, w.A, seed)
	if err != nil {
		return err
	}
	if err := vavg.WriteGraphFile(path, g, false); err != nil {
		return err
	}
	return vavg.VerifyGraphFile(path)
}

// childTimeout bounds one rep, so a hung rep fails instead of holding the
// run past its time limit.
const childTimeout = 150 * time.Second

// runChild runs one rep in a fresh process of this executable and waits
// for it to exit.
func runChild(exe string, j job) (repResult, error) {
	in, err := json.Marshal(j)
	if err != nil {
		return repResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdin = bytes.NewReader(in)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	var r repResult
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return r, fmt.Errorf("child: %v; stderr: %q", errors.Join(runErr, err), stderr.String())
	}
	if r.Err != "" {
		return r, errors.New(r.Err)
	}
	if runErr != nil {
		return r, fmt.Errorf("child: %w; stderr: %q", runErr, stderr.String())
	}
	return r, nil
}

// writeTrace writes every traced rep's spans, one JSON record per line.
func writeTrace(path string, reps []repResult) error {
	var buf bytes.Buffer
	buf.WriteString("[\n")
	first := true
	for _, r := range reps {
		for _, s := range r.Spans {
			if !first {
				buf.WriteString(",\n")
			}
			first = false
			b, err := json.Marshal(s)
			if err != nil {
				return err
			}
			buf.Write(b)
		}
	}
	buf.WriteString("\n]\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// write prints the result's metrics with units, medians, quartiles and
// sample counts.
func (r Result) write(w io.Writer, metrics []Metric) {
	kind := "untraced"
	if r.Trace {
		kind = "traced"
	}
	fmt.Fprintf(w, "%s (%s): %d reps attempted, %d failed, on a %d-CPU box\n", r.Workload, kind, r.Attempted, r.Failed, r.CPUs)
	for _, m := range metrics {
		s := r.Metrics[m.Name]
		fmt.Fprintf(w, "  %-32s %-6s median %-12.6g q1 %-12.6g q3 %-12.6g n=%d\n", m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.N)
	}
	if r.InputBuildS > 0 {
		fmt.Fprintf(w, "  input file build: median %.6g s of %d, included in setup_s\n", r.InputBuildS, inputBuilds)
	}
	if r.Trace {
		fmt.Fprintf(w, "  tracing overhead: traced run / untraced median run_s = %.3f\n", r.TraceOverhead)
	}
	// Untraced sweep reps report no shard counts: vavg.Sweep does not
	// expose them.
	var perRep [][]int
	var seen []int
	for _, s := range r.Shards {
		if len(s) > 0 {
			perRep = append(perRep, s)
		}
		for _, n := range s {
			if !slices.Contains(seen, n) {
				seen = append(seen, n)
			}
		}
	}
	fmt.Fprintf(w, "  engine.shards per rep: %v\n", perRep)
	if len(seen) > 1 {
		fmt.Fprintf(w, "  warning: the autotuner chose different shard counts %v; its mergeCostRatio is timed, so layouts can differ between reps\n", seen)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAILED %s\n", p)
	}
}

// summaryLine is the one-line JSON summary printed last: correctness, rep
// counts, and the median of every metric the run measured.
func (r Result) summaryLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct(), r.Attempted, r.Failed, map[string]value{}}
	for name, s := range r.Metrics {
		if s.N > 0 {
			out.Metrics[name] = value{s.Median, s.Unit}
		}
	}
	return json.Marshal(out)
}

func unitOf(metrics []Metric, name string) string {
	for _, m := range metrics {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}
