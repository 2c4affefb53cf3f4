package bench

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// Main is the vavgperf command; it returns the process exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vavgperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run, or all")
		seed     = fs.Int64("seed", 1, "workload seed: generator seed and Params.Seed (a sweep uses seed..seed+2)")
		seconds  = fs.Float64("seconds", 30, "measuring budget per workload in seconds (at least 3 reps of each kind)")
		trace    = fs.Int("trace", 0, "1: alternate untraced and traced reps and report the per-layer metrics")
		out      = fs.String("out", "", "also write the results, with every sample, to this JSON file")
		workDir  = fs.String("workdir", ".bench_build", "directory for input files and trace-<workload>.json")
		compare  = fs.Bool("compare", false, "compare two results files: -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "vavgperf: -compare takes two results files")
			return 2
		}
		worse, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "vavgperf:", err)
			return 2
		}
		if worse > 0 {
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "vavgperf: usage: vavgperf [-workload W] [-seed S] [-seconds T] [-trace 0|1] [-out FILE]")
		return 2
	}
	workloads := Workloads
	if *workload != "all" {
		w, err := byName(*workload)
		if err != nil {
			fmt.Fprintln(stderr, "vavgperf:", err)
			return 2
		}
		workloads = []Workload{w}
	}
	cfg := Config{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, WorkDir: *workDir}
	metrics := EndToEnd
	if cfg.Trace {
		metrics = PerLayer
	}

	rep := Report{Header: newHeader(*seed)}
	fmt.Fprint(stdout, rep.Header)
	code := 0
	for _, w := range workloads {
		r, err := cfg.Run(w)
		if err != nil {
			fmt.Fprintln(stderr, "vavgperf:", err)
			return 1
		}
		rep.Results = append(rep.Results, r)
		r.write(stdout, metrics)
		line, err := r.summaryLine()
		if err != nil {
			fmt.Fprintln(stderr, "vavgperf:", err)
			return 1
		}
		if !r.Correct() {
			code = 1
		}
		if *out != "" {
			if err := writeReport(*out, rep); err != nil {
				fmt.Fprintln(stderr, "vavgperf:", err)
				return 1
			}
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

func writeReport(path string, rep Report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (Report, error) {
	var rep Report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Results) == 0 {
		return rep, fmt.Errorf("%s: no results", path)
	}
	return rep, nil
}

// verdict classifies the change of one end-to-end metric from a to b:
// "worse" past the metric's bound, "unresolved" when either side's
// interquartile range exceeds the bound, else "ok".
func verdict(m Metric, a, b Summary) string {
	change := (b.Median - a.Median) / a.Median
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return "worse"
	case max(a.IQRShare(), b.IQRShare()) > m.Bound:
		return "unresolved"
	}
	return "ok"
}

// compareFiles prints, per workload and end-to-end metric, both medians
// and interquartile ranges with a verdict, and returns how many metrics
// got worse past their bound (reps that failed in B count too).
func compareFiles(pathA, pathB string, w io.Writer) (int, error) {
	a, err := readReport(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return 0, err
	}
	if a.Header.NumCPU != b.Header.NumCPU {
		fmt.Fprintf(w, "warning: A ran on %d CPUs, B on %d\n", a.Header.NumCPU, b.Header.NumCPU)
	}
	fmt.Fprintf(w, "%-18s %-13s %12s %10s %12s %10s %8s  %s\n", "workload", "metric", "A median", "A IQR", "B median", "B IQR", "change", "verdict")
	worse, matched := 0, 0
	for _, ra := range a.Results {
		if ra.Trace {
			continue
		}
		i := indexResult(b.Results, ra.Workload)
		if i < 0 {
			fmt.Fprintf(w, "%-18s missing from B\n", ra.Workload)
			continue
		}
		rb := b.Results[i]
		matched++
		for _, m := range EndToEnd {
			sa, sb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			if sa.N == 0 || sb.N == 0 || sa.Median == 0 {
				fmt.Fprintf(w, "%-18s %-13s no samples\n", ra.Workload, m.Name)
				worse++
				continue
			}
			v := verdict(m, sa, sb)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-18s %-13s %12.6g %10.4g %12.6g %10.4g %+7.1f%%  %s (bound %g%%)\n",
				ra.Workload, m.Name, sa.Median, sa.Q3-sa.Q1, sb.Median, sb.Q3-sb.Q1,
				100*(sb.Median-sa.Median)/sa.Median, v, 100*m.Bound)
		}
		if rb.Failed > ra.Failed {
			fmt.Fprintf(w, "%-18s failed reps: A %d/%d, B %d/%d  worse\n", ra.Workload, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			worse++
		}
	}
	if matched == 0 {
		return 0, errors.New("no untraced workload appears in both files")
	}
	return worse, nil
}

func indexResult(rs []Result, workload string) int {
	for i, r := range rs {
		if r.Workload == workload && !r.Trace {
			return i
		}
	}
	return -1
}
