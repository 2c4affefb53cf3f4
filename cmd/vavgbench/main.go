// Command vavgbench regenerates the paper's evaluation artifacts: every
// row of Tables 1 and 2, Figure 1, the Lemma 6.1 decay and the Feuilloley
// ring reference points, plus the deterministic fault-degradation matrix
// (-exp faults). Its tables are round counts, byte-identical at any
// -workers; wall-clock cost is measured by the bench/ module
// (bash bench/run.sh).
//
// Usage:
//
//	vavgbench -list
//	vavgbench -exp all
//	vavgbench -exp t2-mis -sizes 1024,4096,16384 -seeds 1,2,3
//	vavgbench -exp table1 -quick
//	vavgbench -exp faults -n 100000
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
		exp     = flag.String("exp", "all", "experiment id, or 'all'")
		list    = flag.Bool("list", false, "list experiments and exit")
		sizes   = flag.String("sizes", "", "comma-separated graph sizes (default per experiment)")
		nFlag   = flag.Int("n", 0, "single graph size; shorthand for -sizes n")
		seeds   = flag.String("seeds", "", "comma-separated seeds (default 1,2,3)")
		quick   = flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
		workers = flag.Int("workers", 0, "sweep worker goroutines (0 = GOMAXPROCS); never changes results")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
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

	cfg := experiments.Config{W: os.Stdout, Quick: *quick, Workers: *workers}
	if cfg.Sizes, err = parseInts(*sizes); err != nil {
		fatal(err)
	}
	nSet := false
	flag.Visit(func(f *flag.Flag) { nSet = nSet || f.Name == "n" })
	if nSet {
		if len(cfg.Sizes) > 0 {
			fatal(fmt.Errorf("-n and -sizes are mutually exclusive"))
		}
		cfg.Sizes = []int{*nFlag}
	}
	for _, n := range cfg.Sizes {
		if n < 1 {
			fatal(fmt.Errorf("graph size %d: sizes must be at least 1", n))
		}
	}
	var seeds64 []int
	if seeds64, err = parseInts(*seeds); err != nil {
		fatal(err)
	}
	for _, s := range seeds64 {
		cfg.Seeds = append(cfg.Seeds, int64(s))
	}

	run := func(e experiments.Experiment) {
		fmt.Printf("== %s — %s\n   claim: %s\n", e.ID, e.Artifact, e.Claim)
		start := time.Now()
		if err := e.Run(cfg); err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		fmt.Printf("   (%.1fs)\n\n", time.Since(start).Seconds())
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
