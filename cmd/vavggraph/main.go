// Command vavggraph generates the library's graph families and manages
// its binary CSR graph store: it reports a family's structural parameters
// (degeneracy, Nash-Williams bound, degrees, components), materializes
// families to disk, inspects file headers without decoding the payload,
// and audits files end to end (checksum, size accounting, full structural
// validation).
//
// Usage:
//
//	vavggraph stats -graph forests -n 1000 -a 4
//	vavggraph stats -graph trigrid -n 400 -edges > edges.txt
//	vavggraph build -graph forests -n 1000000 -a 3 -seed 7 -out forests.csr
//	vavggraph build -graph ring -n 100000000 -compress -out ring.csr
//	vavggraph relabel -in forests.csr -out forests.rcm.csr
//	vavggraph inspect forests.csr
//	vavggraph verify forests.csr
//
// A built file is interchangeable with its generator: `vavgrun -graph
// file:forests.csr` produces byte-identical results to generating the
// same family in-process, while sharing one read-only mapping across
// every worker (and, for concurrent processes, one page-cache copy).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"vavg/internal/graph"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "stats":
		err = runStats(os.Args[2:])
	case "build":
		err = runBuild(os.Args[2:])
	case "relabel":
		err = runRelabel(os.Args[2:])
	case "inspect":
		err = runInspect(os.Args[2:])
	case "verify":
		err = runVerify(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "vavggraph: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vavggraph:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  vavggraph stats -graph FAMILY -n N [-a A] [-seed S] [-edges]
  vavggraph build -graph FAMILY -n N [-a A] [-seed S] [-compress] -out PATH
  vavggraph relabel -in PATH [-compress] -out PATH
  vavggraph inspect PATH
  vavggraph verify PATH

stats generates a family and prints its structural report (n, m, max
degree, degeneracy, Nash-Williams lower bound, certified arboricity
bound, components); with -edges it writes the edge list to stdout and
the report to stderr. build materializes a generator family as a binary
CSR file; relabel
rewrites a file in reverse Cuthill-McKee vertex order for cache
locality (an isomorphic graph — vertex IDs change, so use Params.Relabel
/ vavgrun -relabel when results must match the original file); inspect
prints a file's header without decoding sections; verify audits the
checksum, size accounting, and structural contract.
`)
}

// runStats generates a family and prints its structural report. With
// -edges the edge list goes to stdout and the report to stderr, so the
// edge list can be redirected to a file on its own.
func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	var (
		family = fs.String("graph", "forests", "family: "+strings.Join(graph.Families, "|"))
		n      = fs.Int("n", 1024, "number of vertices")
		a      = fs.Int("a", 3, "density parameter where applicable")
		seed   = fs.Int64("seed", 1, "generator seed")
		edges  = fs.Bool("edges", false, "write the edge list to stdout (the report then goes to stderr)")
	)
	fs.Parse(args)
	g, err := graph.MakeFamily(*family, *n, *a, *seed)
	if err != nil {
		return err
	}
	report := os.Stdout
	if *edges {
		report = os.Stderr
	}
	_, comps := graph.Components(g)
	fmt.Fprintf(report, "name:          %s\n", g.Name)
	fmt.Fprintf(report, "vertices:      %d\n", g.N())
	fmt.Fprintf(report, "edges:         %d\n", g.M())
	fmt.Fprintf(report, "max degree:    %d\n", g.MaxDegree())
	fmt.Fprintf(report, "degeneracy:    %d\n", graph.Degeneracy(g))
	fmt.Fprintf(report, "NW lower bnd:  %d\n", graph.NashWilliamsLowerBound(g))
	fmt.Fprintf(report, "arbor bound:   %d (certified by generator)\n", g.ArborBound)
	fmt.Fprintf(report, "components:    %d\n", comps)
	if !*edges {
		return nil
	}
	w := bufio.NewWriter(os.Stdout)
	for _, e := range g.Edges() {
		fmt.Fprintf(w, "%d %d\n", e.U, e.V)
	}
	return w.Flush()
}

func runBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	var (
		family   = fs.String("graph", "forests", "family: "+strings.Join(graph.Families, "|"))
		n        = fs.Int("n", 1024, "number of vertices")
		a        = fs.Int("a", 3, "density parameter where applicable")
		seed     = fs.Int64("seed", 1, "generator seed")
		compress = fs.Bool("compress", false, "delta-varint compress the stored sections")
		out      = fs.String("out", "", "output path (required)")
	)
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("build: -out is required")
	}
	g, err := graph.MakeFamily(*family, *n, *a, *seed)
	if err != nil {
		return err
	}
	if err := graph.WriteCSRFile(*out, g, *compress); err != nil {
		return err
	}
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}
	rawBytes := 4 * (uint64(g.N()) + 1 + 4*uint64(g.M()))
	fmt.Printf("wrote %s: n=%d m=%d arbor=%d layout=%s file=%d bytes (in-memory CSR %d bytes)\n",
		*out, g.N(), g.M(), g.ArborBound, layout(*compress), st.Size(), rawBytes)
	return nil
}

// runRelabel rewrites a CSR file with its vertices renumbered in reverse
// Cuthill-McKee order: neighbors land near each other on disk and in the
// mapped adjacency, shrinking the working set of the engine's sequential
// sweeps. The output is a plain isomorphic relabeling (graph.Permute) —
// a self-contained, verifiable CSR file whose runs are NOT comparable to
// the original file's, because vertex IDs are observable in the LOCAL
// model. For ID-preserving locality, run the original file with
// Params.Relabel="rcm" instead.
func runRelabel(args []string) error {
	fs := flag.NewFlagSet("relabel", flag.ExitOnError)
	var (
		in       = fs.String("in", "", "input CSR file (required)")
		out      = fs.String("out", "", "output path (required)")
		compress = fs.Bool("compress", false, "delta-varint compress the stored sections")
	)
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("relabel: -in and -out are required")
	}
	g, err := graph.LoadCSR(*in)
	if err != nil {
		return err
	}
	pg := graph.Permute(g, graph.RCMOrder(g))
	if err := graph.WriteCSRFile(*out, pg, *compress); err != nil {
		return err
	}
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: n=%d m=%d arbor=%d layout=%s file=%d bytes (rcm order)\n",
		*out, pg.N(), pg.M(), pg.ArborBound, layout(*compress), st.Size())
	return nil
}

func layout(compressed bool) string {
	if compressed {
		return "compressed"
	}
	return "raw"
}

func runInspect(args []string) error {
	path, err := oneArg("inspect", args)
	if err != nil {
		return err
	}
	info, err := graph.ReadCSRInfo(path)
	if err != nil {
		return err
	}
	fmt.Printf("path:        %s\n", path)
	fmt.Printf("name:        %s\n", info.Name)
	fmt.Printf("vertices:    %d\n", info.N)
	fmt.Printf("edges:       %d\n", info.M)
	fmt.Printf("arbor bound: %d\n", info.ArborBound)
	fmt.Printf("layout:      %s\n", layout(info.Compressed))
	fmt.Printf("file bytes:  %d\n", info.FileBytes)
	fmt.Printf("checksum:    %016x\n", info.Checksum)
	return nil
}

func runVerify(args []string) error {
	path, err := oneArg("verify", args)
	if err != nil {
		return err
	}
	if err := graph.VerifyCSRFile(path); err != nil {
		return err
	}
	fmt.Printf("%s: OK\n", path)
	return nil
}

func oneArg(cmd string, args []string) (string, error) {
	if len(args) != 1 || strings.HasPrefix(args[0], "-") {
		return "", fmt.Errorf("%s: exactly one file path expected", cmd)
	}
	return args[0], nil
}
