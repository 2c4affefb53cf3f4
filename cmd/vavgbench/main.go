// Command vavgbench regenerates the paper's evaluation artifacts: every
// row of Tables 1 and 2, Figure 1, the Lemma 6.1 decay and the Feuilloley
// ring reference points.
//
// Usage:
//
//	vavgbench -list
//	vavgbench -exp all
//	vavgbench -exp t2-mis -sizes 1024,4096,16384 -seeds 1,2,3
//	vavgbench -exp table1 -quick
//	vavgbench -compare BENCH_engine.json -threshold 25
//
// -compare re-measures the backend benchmark and diffs it against a
// committed baseline JSON (the BENCH_engine.json format); it exits
// non-zero when any matched point's wall time or allocation count grew by
// more than -threshold percent.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"vavg/internal/experiments"
	"vavg/internal/prof"
)

// stopProfiles finalizes any active pprof profiles; fatal routes through
// it so profiles survive error exits.
var stopProfiles = func() {}

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment id, or 'all'")
		list      = flag.Bool("list", false, "list experiments and exit")
		sizes     = flag.String("sizes", "", "comma-separated graph sizes (default per experiment)")
		nFlag     = flag.Int("n", 0, "single graph size; shorthand for -sizes n")
		seeds     = flag.String("seeds", "", "comma-separated seeds (default 1,2,3)")
		quick     = flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
		jsonF     = flag.Bool("json", false, "machine-readable JSON output (supported by -exp backends)")
		workers   = flag.Int("workers", 0, "sweep worker goroutines (0 = GOMAXPROCS); never changes results")
		shards    = flag.Int("stepshards", 0, "step-backend shard count (0 = autotuned); never changes results")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		compare   = flag.String("compare", "", "baseline JSON (BENCH_engine.json format): rerun the backend benchmark and fail on regressions")
		threshold = flag.Float64("threshold", 25, "regression threshold for -compare, in percent")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-18s %-38s %s\n", e.ID, e.Artifact, e.Claim)
		}
		return
	}

	var err error
	if stopProfiles, err = prof.Start(*cpuProf, *memProf); err != nil {
		fatal(err)
	}
	defer stopProfiles()

	cfg := experiments.Config{W: os.Stdout, Quick: *quick, JSON: *jsonF, Workers: *workers, StepShards: *shards}
	if cfg.Sizes, err = parseInts(*sizes); err != nil {
		fatal(err)
	}
	if *nFlag > 0 {
		if len(cfg.Sizes) > 0 {
			fatal(fmt.Errorf("-n and -sizes are mutually exclusive"))
		}
		cfg.Sizes = []int{*nFlag}
	}
	var seeds64 []int
	if seeds64, err = parseInts(*seeds); err != nil {
		fatal(err)
	}
	for _, s := range seeds64 {
		cfg.Seeds = append(cfg.Seeds, int64(s))
	}

	if *compare != "" {
		if err := runCompare(cfg, *compare, *threshold); err != nil {
			fatal(err)
		}
		return
	}

	run := func(e experiments.Experiment) {
		// JSON mode keeps stdout clean for the machine-readable payload.
		if !cfg.JSON {
			fmt.Printf("== %s — %s\n   claim: %s\n", e.ID, e.Artifact, e.Claim)
		}
		start := time.Now()
		if err := e.Run(cfg); err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		if !cfg.JSON {
			fmt.Printf("   (%.1fs)\n\n", time.Since(start).Seconds())
		}
	}

	if *exp == "all" {
		for _, e := range experiments.All() {
			run(e)
		}
		return
	}
	for _, id := range strings.Split(*exp, ",") {
		e, err := experiments.Find(strings.TrimSpace(id))
		if err != nil {
			fatal(err)
		}
		run(e)
	}
}

// runCompare re-measures the backend benchmark under cfg and diffs it
// against the baseline file, failing the process when any point regressed
// past the threshold.
func runCompare(cfg experiments.Config, path string, thresholdPct float64) error {
	base, err := experiments.LoadBench(path)
	if err != nil {
		return err
	}
	cfg.JSON = false
	fresh, err := experiments.RunBackendBench(cfg)
	if err != nil {
		return err
	}
	rep := experiments.CompareBenches(base, fresh, thresholdPct)
	rep.Write(os.Stdout)
	if rep.Regressions > 0 {
		return fmt.Errorf("%d benchmark points regressed past %+.0f%%", rep.Regressions, thresholdPct)
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "vavgbench:", err)
	os.Exit(1)
}
