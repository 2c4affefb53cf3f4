package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"vavg"
	"vavg/internal/engine"
	"vavg/internal/graph"
	"vavg/internal/metrics"
	"vavg/internal/parallel"
)

// BackendPoint is one (backend, algorithm, family, n) measurement of the
// engine-core benchmark: the LOCAL-model accounting (which must be
// identical across backends) plus the wall-clock and memory cost of the
// execution strategy (which is what differs).
type BackendPoint struct {
	Backend          string  `json:"backend"`
	Algorithm        string  `json:"algorithm"`
	Family           string  `json:"family"`
	N                int     `json:"n"`
	M                int     `json:"m"`
	TotalRounds      int     `json:"totalRounds"`
	RoundSum         int64   `json:"roundSum"`
	VertexAvg        float64 `json:"vertexAvg"`
	WallMs           float64 `json:"wallMs"`
	NsPerRound       float64 `json:"nsPerRound"`
	NsPerVertexRound float64 `json:"nsPerVertexRound"`
	PeakBytes        uint64  `json:"peakBytes"`
	// PeakRSSBytes is the kernel's peak-resident watermark across the run
	// (VmHWM, reset per measurement where the host allows), the
	// memory-budget column of the out-of-core push: unlike PeakBytes it
	// includes pages faulted in through file mappings. 0 on hosts without
	// procfs and in baselines that predate the column.
	PeakRSSBytes uint64 `json:"peakRSSBytes,omitempty"`
	// MappedBytes is the size of the read-only file mapping backing the
	// run's graph, 0 for heap-resident graphs. Mapped pages are shared and
	// reclaimable; heap pages are neither, which is why the two are
	// reported separately.
	MappedBytes uint64 `json:"mappedBytes,omitempty"`
	// Allocs is the total heap allocation count of the run (Mallocs
	// delta); AllocsPerVertexRound divides it by RoundSum. A near-zero
	// per-vertex-round figure is the zero-allocation message path working:
	// what remains is per-run setup (graph-independent slabs are recycled)
	// plus per-vertex termination (one Final per vertex).
	Allocs               uint64  `json:"allocs"`
	AllocsPerVertexRound float64 `json:"allocsPerVertexRound"`
}

// BackendBench is the machine-readable artifact committed as
// BENCH_engine.json: the execution environment plus all points.
type BackendBench struct {
	GoVersion  string         `json:"goVersion"`
	GoMaxProcs int            `json:"gomaxprocs"`
	NumCPU     int            `json:"numCPU"`
	Points     []BackendPoint `json:"points"`
	// Faults is the degradation matrix (see faults.go): every fault
	// algorithm under every (drop rate, crash fraction) combination.
	// Absent in baselines generated before the adversarial layer existed;
	// the compare gate treats the missing column as zero points.
	Faults []FaultPoint `json:"faults,omitempty"`
	// SweepTimings compares dispatching the full benchmark matrix through
	// the sweep scheduler serially (workers=1) and in parallel
	// (cfg.Workers); the parallel entry's Speedup is serial wall time over
	// its own. Absent when the run was configured with one worker.
	SweepTimings []SweepTiming `json:"sweepTimings,omitempty"`
	// Multicore is the step backend's worker-scaling matrix (see
	// multicore.go): the same shard layout driven by GOMAXPROCS ∈ {1,4,8}
	// workers. Absent in baselines generated before the staged-lane
	// backend; the compare gate treats the missing column as zero points.
	Multicore []MulticorePoint `json:"multicore,omitempty"`
	// OutOfCore is the file-backed graph matrix (see outofcore.go): the
	// same run measured from a generated graph and from an mmap'd CSR
	// file, with the memory-budget columns populated. Absent in baselines
	// generated before the out-of-core store existed; the compare gate
	// treats the missing column as zero points.
	OutOfCore []OutOfCorePoint `json:"outOfCore,omitempty"`
	// Locality is the cache-layout matrix (see locality.go): relabel
	// {off, rcm} × shards {auto, fixed} on the step backend over an mmap'd
	// CSR file, with identical accounting enforced across all four cells.
	// Absent in baselines generated before the locality pass existed; the
	// compare gate treats the missing column as zero points.
	Locality []LocalityPoint `json:"locality,omitempty"`
}

// SweepTiming is one wall-clock measurement of the whole benchmark matrix
// dispatched through the sweep scheduler at a fixed worker count.
type SweepTiming struct {
	Workers int     `json:"workers"`
	WallMs  float64 `json:"wallMs"`
	Speedup float64 `json:"speedup"`
}

// backendFamilies are the graph families the backend benchmark sweeps;
// ring (a=2) and forest-union (a=3) are the million-vertex families named
// by the engine roadmap.
var backendFamilies = []struct {
	Name string
	A    int
	Gen  func(n int) *vavg.Graph
}{
	{"ring", 2, func(n int) *vavg.Graph { return vavg.Ring(n) }},
	{"forests", 3, func(n int) *vavg.Graph { return vavg.ForestUnion(n, 3, 7) }},
}

// backendAlgs are the default benchmarked algorithms: "partition" is the
// early-termination workload (every backend shrinks its live set), while
// "arblinial-o1" and "ka2" layer the §7 Idle-window schedules on top,
// which is where the step backend's active-set scheduling pays off:
// goroutines wakes every live vertex every round of a window, while step
// parks them in a timer heap until a message arrives or the window
// expires, without any goroutine machinery at all.
var backendAlgs = []string{"partition", "arblinial-o1", "ka2"}

// RunBackendBench measures every registered engine backend on the default
// algorithm/family matrix across cfg.Sizes. The per-point wall and memory
// measurements run strictly serially — concurrent runs would contend for
// cores and corrupt them; the sweep-scheduler throughput comparison is
// measured separately by measureSweepTimings.
func RunBackendBench(cfg Config) (*BackendBench, error) {
	cfg = cfg.withDefaults()
	seed := cfg.Seeds[0]
	bench := &BackendBench{GoVersion: runtime.Version(), GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	for _, fam := range backendFamilies {
		for _, n := range cfg.Sizes {
			g := cachedGraph(graph.CacheKey(fam.Name, n), func() *vavg.Graph { return fam.Gen(n) })
			for _, name := range backendAlgs {
				alg, err := vavg.ByName(name)
				if err != nil {
					return nil, err
				}
				for _, backend := range engine.Backends() {
					pt, err := measureBackend(alg, g, fam.Name, fam.A, backend, seed, cfg.StepShards)
					if err != nil {
						return nil, fmt.Errorf("backends: %s/%s/%s n=%d: %w", backend, name, fam.Name, n, err)
					}
					bench.Points = append(bench.Points, pt)
				}
			}
		}
	}
	var err error
	if bench.SweepTimings, err = measureSweepTimings(cfg); err != nil {
		return nil, err
	}
	if bench.Multicore, err = RunMulticoreBench(cfg); err != nil {
		return nil, err
	}
	if bench.Faults, err = RunFaultsBench(cfg); err != nil {
		return nil, err
	}
	if bench.OutOfCore, err = RunOutOfCoreBench(cfg); err != nil {
		return nil, err
	}
	if bench.Locality, err = RunLocalityBench(cfg); err != nil {
		return nil, err
	}
	return bench, nil
}

// sweepMatrix builds the benchmark matrix as schedulable run points, one
// per (family, n, algorithm, backend), sharing one cached graph per
// (family, n) and skipping validation so only the engine is on the clock.
func sweepMatrix(cfg Config) ([]runPoint, error) {
	seed := cfg.Seeds[0]
	var points []runPoint
	for _, fam := range backendFamilies {
		for _, n := range cfg.Sizes {
			g := cachedGraph(graph.CacheKey(fam.Name, n), func() *vavg.Graph { return fam.Gen(n) })
			for _, name := range backendAlgs {
				alg, err := vavg.ByName(name)
				if err != nil {
					return nil, err
				}
				for _, backend := range engine.Backends() {
					points = append(points, runPoint{alg, g, vavg.Params{
						Arboricity: fam.A, Seed: seed, Backend: backend, StepShards: cfg.StepShards, SkipValidation: true,
					}})
				}
			}
		}
	}
	return points, nil
}

// measureSweepTimings times the full benchmark matrix dispatched through
// the sweep scheduler, first serially (workers=1), then at the configured
// worker count when it differs. This is the throughput measure the
// parallel scheduler optimizes: on a W-core machine the parallel dispatch
// should approach min(W, workers)x the serial wall time, while on a
// single-core machine it stays near 1x (the matrix is CPU-bound).
func measureSweepTimings(cfg Config) ([]SweepTiming, error) {
	points, err := sweepMatrix(cfg)
	if err != nil {
		return nil, err
	}
	counts := []int{1}
	if w := parallel.Workers(cfg.Workers, len(points)); w > 1 {
		counts = append(counts, w)
	}
	var out []SweepTiming
	for _, workers := range counts {
		runtime.GC()
		errs := make([]error, len(points))
		start := time.Now()
		parallel.ForEach(workers, len(points), func(i int) {
			pt := points[i]
			_, errs[i] = pt.alg.Run(pt.g, pt.p)
		})
		wall := float64(time.Since(start).Nanoseconds()) / 1e6
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("backends: sweep timing (workers=%d): %w", workers, err)
			}
		}
		speedup := 1.0
		if len(out) > 0 && wall > 0 {
			speedup = out[0].WallMs / wall
		}
		out = append(out, SweepTiming{Workers: workers, WallMs: wall, Speedup: speedup})
	}
	return out, nil
}

// measureBackend times one run with validation disabled so only the engine
// core is on the clock, and samples HeapInuse+StackInuse concurrently to
// capture the peak footprint (goroutine stacks dominate at large n).
func measureBackend(alg vavg.Algorithm, g *vavg.Graph, family string, a int, backend string, seed int64, stepShards int) (BackendPoint, error) {
	pt, _, err := measureParams(alg, g, family, vavg.Params{
		Arboricity: a, Seed: seed, Backend: backend, StepShards: stepShards,
	})
	return pt, err
}

// measureParams is measureBackend with the full Params surface (the
// locality matrix threads Relabel and StepShards through it) and the
// measured Report returned alongside, for columns the BackendPoint does
// not carry (the autotuned shard count). SkipValidation is forced.
func measureParams(alg vavg.Algorithm, g *vavg.Graph, family string, p vavg.Params) (BackendPoint, metrics.Run, error) {
	runtime.GC()
	resetPeakRSS()
	stop := make(chan struct{})
	peakCh := make(chan uint64, 1)
	go func() {
		var ms runtime.MemStats
		var peak uint64
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if v := ms.HeapInuse + ms.StackInuse; v > peak {
				peak = v
			}
			select {
			case <-stop:
				peakCh <- peak
				return
			case <-tick.C:
			}
		}
	}()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	startMallocs := ms.Mallocs
	p.SkipValidation = true
	start := time.Now()
	rep, err := alg.Run(g, p)
	wall := time.Since(start)
	runtime.ReadMemStats(&ms)
	close(stop)
	peak := <-peakCh
	if err != nil {
		return BackendPoint{}, metrics.Run{}, err
	}
	pt := BackendPoint{
		Backend:      p.Backend,
		Algorithm:    alg.Name,
		Family:       family,
		N:            g.N(),
		M:            g.M(),
		TotalRounds:  rep.WorstCase,
		RoundSum:     rep.RoundSum,
		VertexAvg:    rep.VertexAvg,
		WallMs:       float64(wall.Nanoseconds()) / 1e6,
		PeakBytes:    peak,
		PeakRSSBytes: readPeakRSSBytes(),
		MappedBytes:  g.MappedBytes(),
		Allocs:       ms.Mallocs - startMallocs,
	}
	if rep.WorstCase > 0 {
		pt.NsPerRound = float64(wall.Nanoseconds()) / float64(rep.WorstCase)
	}
	if rep.RoundSum > 0 {
		pt.NsPerVertexRound = float64(wall.Nanoseconds()) / float64(rep.RoundSum)
		pt.AllocsPerVertexRound = float64(pt.Allocs) / float64(rep.RoundSum)
	}
	return pt, rep, nil
}

// WriteJSON emits the benchmark as indented JSON (the BENCH_engine.json
// format).
func (b *BackendBench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// runBackends renders the backend comparison as a table (or as JSON under
// cfg.JSON) and cross-checks that the backends agreed on the accounting.
func runBackends(cfg Config) error {
	cfg = cfg.withDefaults()
	bench, err := RunBackendBench(cfg)
	if err != nil {
		return err
	}
	if err := checkBackendAgreement(bench); err != nil {
		return err
	}
	if cfg.JSON {
		return bench.WriteJSON(cfg.W)
	}
	var rows [][]string
	for _, pt := range bench.Points {
		rows = append(rows, []string{
			pt.Backend, pt.Algorithm, pt.Family, metrics.I(pt.N),
			metrics.F(pt.VertexAvg), metrics.I(pt.TotalRounds),
			fmt.Sprintf("%.1f", pt.WallMs),
			fmt.Sprintf("%.0f", pt.NsPerVertexRound),
			fmt.Sprintf("%.3f", pt.AllocsPerVertexRound),
			fmt.Sprintf("%.1f", float64(pt.PeakBytes)/(1<<20)),
		})
	}
	metrics.Table(cfg.W, []string{"backend", "algorithm", "family", "n",
		"vertex-avg", "rounds", "wall ms", "ns/vertex-round", "allocs/vr", "peak MiB"}, rows)
	if len(bench.SweepTimings) > 0 {
		fmt.Fprintf(cfg.W, "\nsweep scheduler (full matrix, %d CPUs):\n", bench.NumCPU)
		var trows [][]string
		for _, t := range bench.SweepTimings {
			trows = append(trows, []string{
				metrics.I(t.Workers), fmt.Sprintf("%.1f", t.WallMs),
				fmt.Sprintf("%.2fx", t.Speedup),
			})
		}
		metrics.Table(cfg.W, []string{"workers", "wall ms", "speedup"}, trows)
	}
	return nil
}

// checkBackendAgreement verifies the equivalence contract on the
// benchmark's own data: every backend must report identical rounds and
// round sums for the same (algorithm, family, n, seed) cell.
func checkBackendAgreement(b *BackendBench) error {
	type key struct {
		alg, fam string
		n        int
	}
	seen := map[key]BackendPoint{}
	for _, pt := range b.Points {
		k := key{pt.Algorithm, pt.Family, pt.N}
		if prev, ok := seen[k]; ok {
			if prev.TotalRounds != pt.TotalRounds || prev.RoundSum != pt.RoundSum {
				return fmt.Errorf("backends disagree on %s/%s n=%d: %s (%d,%d) vs %s (%d,%d)",
					pt.Algorithm, pt.Family, pt.N,
					prev.Backend, prev.TotalRounds, prev.RoundSum,
					pt.Backend, pt.TotalRounds, pt.RoundSum)
			}
		} else {
			seen[k] = pt
		}
	}
	return nil
}
