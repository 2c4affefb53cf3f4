// Command vavgperf is the end-to-end benchmark of the vavg simulator.
//
// Usage:
//
//	vavgperf [-workload W] [-seed S] [-seconds T] [-trace 0|1] [-out FILE]
//	vavgperf -compare A.json B.json
//
// See bench/README.md.
package main

import (
	"os"

	"vavg/bench"
)

func main() {
	if bench.IsChild() {
		os.Exit(bench.ChildMain())
	}
	os.Exit(bench.Main(os.Args[1:], os.Stdout, os.Stderr))
}
