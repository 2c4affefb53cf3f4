// Package bench is vavgperf, the end-to-end benchmark of the vavg
// simulator. Every repetition runs as a fresh child process on the path
// a vavgrun user pays for (generate or mmap the graph, relabel, engine,
// validate, report), calling only vavg's public entry points with
// validation on; a separate traced run times the same program layer by
// layer. See README.md for the workloads, metrics and commands.
package bench

import "fmt"

// Workload is one set of inputs the benchmark runs. A workload with Sizes
// is a vavg.Sweep over those sizes and three seeds; otherwise it is one
// Algorithm.Run on a graph of N vertices.
type Workload struct {
	Name string
	// Why records what the workload stresses; BENCHMARK.json repeats it.
	Why string
	// Alg is the registry name of the algorithm.
	Alg string
	// Family is the vavg.MakeFamily generator, and A both its density and
	// Params.Arboricity.
	Family string
	N, A   int
	// File materializes the graph into a raw CSR file before the reps;
	// each rep then mmaps it with vavg.LoadGraph.
	File bool
	// Relabel is Params.Relabel.
	Relabel string
	// Sizes, when set, makes the workload a sweep.
	Sizes []int
}

// Workloads is the benchmark suite. The sizes keep a rep well under a
// second or two, so a run's median is taken over 20 to 60 reps and slow
// stretches of a shared box average out; see README.md for why each
// workload exists and which layers it stresses.
var Workloads = []Workload{
	{
		Name:   "partition-forests",
		Why:    "generated forests n=2e5 a=3, partition: graph build and two dense rounds of shard-crossing messages",
		Alg:    "partition",
		Family: "forests", N: 200_000, A: 3,
	},
	{
		Name:   "mis-forests",
		Why:    "forests n=1e4 a=3, mis (Cor 8.4): ~400 rounds of mostly idle vertices, per-round fixed costs dominate",
		Alg:    "mis",
		Family: "forests", N: 10_000, A: 3,
	},
	{
		Name:   "ka2-file-rcm",
		Why:    "CSR file of ringshuffled n=2e5 built and mmap'd, ka2 with RCM relabel: file I/O, relabel view, 12 all-awake rounds",
		Alg:    "ka2",
		Family: "ringshuffled", N: 200_000, A: 2,
		File:    true,
		Relabel: "rcm",
	},
	{
		Name:   "luby-sweep",
		Why:    "Sweep of mis-luby over cached forests n=2k..8k x 3 seeds on nproc workers: per-run fixed costs, scheduler",
		Alg:    "mis-luby",
		Family: "forests", A: 3,
		Sizes: []int{2048, 4096, 8192},
	},
}

// small returns the workload shrunk to about 4096 vertices, for the smoke
// test.
func (w Workload) small() Workload {
	if w.Sizes != nil {
		w.Sizes = []int{1024, 2048, 4096}
	} else {
		w.N = 4096
	}
	return w
}

// byName looks up a workload of the suite.
func byName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(Workloads))
	for i, w := range Workloads {
		names[i] = w.Name
	}
	return Workload{}, fmt.Errorf("unknown workload %q (workloads: %v)", name, names)
}
