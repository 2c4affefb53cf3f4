// Command vavgrun executes a single algorithm from the registry on a
// generated graph (or a graph file built by vavggraph), validates the
// output, and reports the vertex-averaged measures.
//
// Usage:
//
//	vavgrun -list
//	vavgrun -alg mis -graph forests -n 10000 -a 3
//	vavgrun -alg ka -graph trigrid -n 10000 -k 4 -decay
//	vavgrun -alg partition -graph file:forests.csr
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"vavg"
	"vavg/internal/prof"
)

// stopProfiles finalizes any active pprof profiles; fatal routes through
// it so profiles survive error exits.
var stopProfiles = func() {}

func main() {
	var (
		list    = flag.Bool("list", false, "list algorithms and exit")
		algIn   = flag.String("alg", "forest-decomp", "algorithm name")
		family  = flag.String("graph", "forests", "graph family ("+strings.Join(vavg.GraphFamilies, "|")+") or file:PATH for a CSR file built by vavggraph")
		n       = flag.Int("n", 4096, "number of vertices (ignored for file: graphs)")
		a       = flag.Int("a", 3, "arboricity parameter (and generator density)")
		k       = flag.Int("k", 2, "segment count for the §7.5 scheme")
		c       = flag.Int("c", 4, "constant C for §7.8")
		eps     = flag.Float64("eps", 2, "partition slack in (0,2]")
		seed    = flag.Int64("seed", 1, "run seed (a sweep runs seeds seed, seed+1, seed+2 per size)")
		relabel = flag.String("relabel", "", "vertex-relabeling layout pass: rcm|off (default off); never changes results")
		decay   = flag.Bool("decay", false, "print the active-vertex decay")
		scen    = flag.String("scenario", "", "adversarial scenario, e.g. 'drop=0.25,crashfrac=0.05,crashround=3' or a JSON spec")
		sweep   = flag.String("sweep", "", "comma-separated sizes: run a size sweep instead of a single run")
		format  = flag.String("format", "csv", "sweep output format: csv|json")
		workers = flag.Int("workers", 0, "sweep worker goroutines (0 = GOMAXPROCS); never changes results")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *format != "csv" && *format != "json" {
		fatal(fmt.Errorf("unknown -format %q: want csv|json", *format))
	}

	var err error
	if stopProfiles, err = prof.Start(*cpuProf, *memProf); err != nil {
		fatal(err)
	}
	defer stopProfiles()

	if *list {
		for _, alg := range vavg.Algorithms() {
			det := "rand"
			if alg.Deterministic {
				det = "det "
			}
			fmt.Printf("%-22s %-14s %s  vertex-avg %s\n", alg.Name, alg.Paper, det, alg.VertexAvgBound)
		}
		return
	}

	alg, err := vavg.ByName(*algIn)
	if err != nil {
		fatal(err)
	}
	var sc *vavg.Scenario
	if *scen != "" {
		if sc, err = vavg.ParseScenario(*scen); err != nil {
			fatal(err)
		}
	}
	if *sweep != "" {
		if err := runSweep(alg, *family, *sweep, *format, *a, *eps, *k, *c, *seed, *relabel, *workers, sc); err != nil {
			fatal(err)
		}
		return
	}
	g, err := makeGraph(*family, *n, *a, *seed)
	if err != nil {
		fatal(err)
	}
	rep, err := alg.Run(g, vavg.Params{
		Arboricity: *a, Eps: *eps, K: *k, C: *c, Seed: *seed, Relabel: *relabel, Scenario: sc,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("algorithm:     %s (%s, %s)\n", alg.Name, alg.Paper, alg.Description)
	fmt.Printf("graph:         %s  n=%d m=%d a<=%d Δ=%d\n", g.Name, g.N(), g.M(), rep.Arbor, g.MaxDegree())
	if mb := g.MappedBytes(); mb > 0 {
		fmt.Printf("mapped:        %d bytes (read-only file mapping)\n", mb)
	}
	fmt.Printf("vertex-avg:    %.3f rounds   (bound: %s)\n", rep.VertexAvg, alg.VertexAvgBound)
	fmt.Printf("worst-case:    %d rounds\n", rep.WorstCase)
	fmt.Printf("round sum:     %d   messages: %d\n", rep.RoundSum, rep.Messages)
	if rep.Colors >= 0 {
		fmt.Printf("colors used:   %d", rep.Colors)
		if alg.ColorBound != "" {
			fmt.Printf("   (bound: %s)", alg.ColorBound)
		}
		fmt.Println()
	}
	if rep.Size >= 0 {
		fmt.Printf("solution size: %d\n", rep.Size)
	}
	if sc == nil {
		fmt.Println("validation:    ok")
	} else {
		// Under a scenario, hard validation is replaced by the degradation
		// audit: report what the adversary cost instead of asserting a
		// perfect output.
		fmt.Printf("scenario:      %s\n", sc.String())
		conv := "yes"
		if !rep.Converged {
			conv = "no (round budget exhausted)"
		}
		fmt.Printf("converged:     %s\n", conv)
		fmt.Printf("dropped:       %d deliveries   lost to crash: %d\n", rep.Dropped, rep.LostToCrash)
		fmt.Printf("crashed:       %d forever   restarts: %d\n", rep.CrashedForever, rep.Restarts)
		if rep.ResidualConflicts >= 0 {
			fmt.Printf("residual conflicts: %d\n", rep.ResidualConflicts)
		}
	}

	if *decay {
		fmt.Println("\nactive vertices per round:")
		for i, act := range rep.ActivePerRound {
			bar := strings.Repeat("#", int(math.Ceil(60*float64(act)/float64(g.N()))))
			fmt.Printf("%4d %8d %s\n", i+1, act, bar)
		}
	}
}

// runSweep measures the algorithm across a size sweep and emits CSV or
// JSON suitable for plotting. Each size runs seeds seed, seed+1 and
// seed+2, so the default -seed 1 gives Sweep's default {1, 2, 3}.
func runSweep(alg vavg.Algorithm, family, sizesArg, format string, a int, eps float64, k, c int, seed int64, relabel string, workers int, sc *vavg.Scenario) error {
	var sizes []int
	gen := graphSource(family, a, seed)
	if strings.HasPrefix(family, "file:") && sizesArg == "file" {
		// `-sweep file` sweeps a file-backed graph at its one native size
		// without the caller having to know it.
		sizes = []int{gen(0).N()}
	} else {
		for _, part := range strings.Split(sizesArg, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad sweep sizes %q: %w", sizesArg, err)
			}
			sizes = append(sizes, v)
		}
	}
	seeds := []int64{seed, seed + 1, seed + 2}
	res, err := vavg.Sweep(alg, gen, sizes, seeds, vavg.Params{Arboricity: a, Eps: eps, K: k, C: c, Relabel: relabel, SweepWorkers: workers, Scenario: sc})
	if err != nil {
		return err
	}
	// The fit needs two distinct sizes; below that it is NaN.
	if e := res.VertexAvgGrowth(); !math.IsNaN(e) {
		fmt.Fprintf(os.Stderr, "vertex-avg growth exponent vs log n: %.3f (0 = flat, 1 = Θ(log n))\n", e)
	}
	if format == "json" {
		return res.WriteJSON(os.Stdout)
	}
	return res.WriteCSV(os.Stdout)
}

// graphSource resolves -graph into a size-indexed source: a shared-cache
// generator for family names, a shared-mapping file load for file:PATH.
// A family argument MakeFamily rejects ends the process through fatal.
func graphSource(family string, a int, seed int64) func(n int) *vavg.Graph {
	if path, ok := strings.CutPrefix(family, "file:"); ok {
		return vavg.FileGen(path)
	}
	return vavg.CachedGen(family, func(n int) *vavg.Graph {
		g, err := vavg.MakeFamily(family, n, a, seed)
		if err != nil {
			fatal(err)
		}
		return g
	}, "a", a, "seed", seed)
}

func makeGraph(family string, n, a int, seed int64) (*vavg.Graph, error) {
	if path, ok := strings.CutPrefix(family, "file:"); ok {
		return vavg.LoadGraph(path)
	}
	return vavg.MakeFamily(family, n, a, seed)
}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "vavgrun:", err)
	os.Exit(1)
}
