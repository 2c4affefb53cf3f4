// Command vavglint runs the vavg static-analysis suite (internal/
// analysis) over module packages and reports contract violations:
//
//	go run ./cmd/vavglint ./...
//
// Analyzers: detorder (map-iteration order must not reach results),
// noglobalrand (vertex code draws only from the per-vertex seeded PRNG),
// stepcontract (step-form programs never block), wiretag (fast-lane tags
// come from internal/wire constants), hotpath (//vavg:hotpath functions
// stay allocation-free), scenarioseam and shardseam (the fault-layer and
// shard-state contracts), plus the interprocedural detflow (determinism
// taint must not reach messages, Results, or adversary hashing through
// any call chain); -list prints them all. Suppress a deliberate exception with
// //lint:ignore <analyzer> <reason> on or directly above the flagged
// line; //lint:file-ignore covers a whole file. A directive naming no
// analyzer of the suite is itself a finding.
//
// -json emits one JSON object per finding (analyzer, position, message,
// suppression state), suppressed findings included so consumers can audit
// them; text mode prints active findings only.
//
// Exit status: 0 clean, 1 active findings, 2 load or usage errors.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"vavg/internal/analysis"
)

func main() {
	var (
		names   = flag.String("analyzers", "", "comma-separated subset to run (default: all)")
		list    = flag.Bool("list", false, "list analyzers and exit")
		dir     = flag.String("C", ".", "module directory to run in")
		jsonOut = flag.Bool("json", false, "emit findings as JSON Lines (suppressed findings included, marked)")
		workers = flag.Int("workers", 0, "concurrent type-check/analysis workers (0 = GOMAXPROCS)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: vavglint [flags] [packages]\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *names != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*names, ",") {
			a, err := analysis.ByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := analysis.NewLoader(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	loader.Workers = *workers
	pkgs, err := loader.LoadPackages(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	diags := analysis.RunAnalyzersN(analyzers, pkgs, *workers)
	active := analysis.Active(diags)
	if *jsonOut {
		baseDir, err := filepath.Abs(*dir)
		if err != nil {
			baseDir = *dir
		}
		w := bufio.NewWriter(os.Stdout)
		if err := analysis.WriteJSON(w, diags, baseDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		w.Flush()
	} else {
		for _, d := range active {
			fmt.Println(d)
		}
	}
	if len(active) > 0 {
		fmt.Fprintf(os.Stderr, "vavglint: %d finding(s)\n", len(active))
		os.Exit(1)
	}
}
