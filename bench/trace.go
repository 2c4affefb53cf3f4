package bench

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"vavg"
	"vavg/internal/baseline"
	"vavg/internal/check"
	"vavg/internal/engine"
	"vavg/internal/extend"
	"vavg/internal/graph"
	"vavg/internal/hpartition"
	"vavg/internal/metrics"
	"vavg/internal/parallel"
	"vavg/internal/segment"
)

// Span is one timed call into a layer, as written to trace-<workload>.json.
type Span struct {
	ID int `json:"id"`
	// Parent is the ID of the enclosing span, -1 for a rep's root.
	Parent int `json:"parent"`
	// Rep is the index of the rep among the run's traced reps.
	Rep  int    `json:"rep"`
	Name string `json:"name"`
	// Start and End are nanoseconds since the child process began tracing.
	Start int64 `json:"startNs"`
	End   int64 `json:"endNs"`
}

// tracer keeps a rep's spans in memory; sweep workers record concurrently.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// span runs f inside a span named name under parent; f receives the new
// span's ID to parent its own spans.
func (t *tracer) span(parent int, name string, f func(id int)) {
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name})
	t.mu.Unlock()
	start := time.Since(t.epoch)
	f(id)
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].Start, t.spans[id].End = int64(start), int64(end)
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover (overlapping children counted once).
func selfTimes(spans []Span) map[string]time.Duration {
	kids := map[int][]Span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered int64
		lo, hi := int64(-1), int64(-1)
		for _, c := range cs {
			if c.Start > hi {
				covered += hi - lo
				lo, hi = c.Start, c.End
			} else if c.End > hi {
				hi = c.End
			}
		}
		covered += hi - lo
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// specFor builds the engine spec Algorithm.Run would for the workloads'
// algorithms; the traced reps' counters matching the untraced ones shows
// the two agree.
func specFor(alg string, p vavg.Params) (engine.Spec, error) {
	switch alg {
	case "partition":
		return engine.Spec{Program: hpartition.Program(p.Arboricity, p.Eps), Step: hpartition.StepProgram(p.Arboricity, p.Eps)}, nil
	case "mis":
		return engine.Spec{Program: extend.MIS(p.Arboricity, p.Eps), Step: extend.MISStep(p.Arboricity, p.Eps)}, nil
	case "ka2":
		return engine.Spec{Program: segment.KA2Coloring(p.Arboricity, p.K, p.Eps), Step: segment.KA2Step(p.Arboricity, p.K, p.Eps)}, nil
	case "mis-luby":
		return engine.Spec{Program: baseline.LubyMIS(), Step: baseline.LubyMISStep()}, nil
	}
	return engine.Spec{}, fmt.Errorf("no traced spec for algorithm %q", alg)
}

// validate collects the outputs and audits them the way Algorithm.Run
// does for the workloads' algorithms, returning the color count and the
// set size (-1 where they do not apply).
func validate(alg string, g *graph.Graph, p vavg.Params, res *engine.Result) (colors, size int, err error) {
	colors, size = -1, -1
	switch alg {
	case "partition":
		h := make([]int, g.N())
		for v, o := range res.Output {
			j, ok := o.(hpartition.Join)
			if !ok {
				return colors, size, fmt.Errorf("vertex %d output %T, want a Join", v, o)
			}
			h[v] = int(j.Index)
		}
		return colors, size, check.HPartition(g, h, hpartition.ParamA(p.Arboricity, p.Eps))
	case "mis", "mis-luby":
		in := make([]bool, g.N())
		size = 0
		for v, o := range res.Output {
			b, ok := o.(bool)
			if !ok {
				return colors, size, fmt.Errorf("vertex %d output %T, want bool", v, o)
			}
			in[v] = b
			if b {
				size++
			}
		}
		return colors, size, check.MIS(g, in)
	case "ka2":
		cols := make([]int, g.N())
		for v, o := range res.Output {
			c, ok := o.(int)
			if !ok {
				return colors, size, fmt.Errorf("vertex %d output %T, want int", v, o)
			}
			cols[v] = c
		}
		colors = check.CountColors(cols)
		return colors, size, check.VertexColoring(g, cols, segment.KA2Palette(g.N(), p.Arboricity, p.K, p.Eps))
	}
	return colors, size, fmt.Errorf("no validator for algorithm %q", alg)
}

// tracedRep accumulates one traced rep's per-layer counts.
type tracedRep struct {
	tr  *tracer
	alg string
	// points and workers are set by sweep reps.
	points, workers int

	mu                         sync.Mutex // guards the fields below
	csrBytes, mappedBytes      uint64
	rounds, vertexRounds, msgs int64
	failures                   int
	shards                     []int
	mem                        memDelta
}

// memDelta is a runtime.MemStats difference.
type memDelta struct {
	allocs, allocBytes, gcCycles uint64
	gcPause                      time.Duration
}

// measureMem runs f and adds the allocation and GC deltas around it.
func (d *memDelta) measureMem(f func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	d.allocs += after.Mallocs - before.Mallocs
	d.allocBytes += after.TotalAlloc - before.TotalAlloc
	d.gcCycles += uint64(after.NumGC - before.NumGC)
	d.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
}

func csrBytes(g *graph.Graph) uint64 {
	return 4 * uint64(len(g.Off)+len(g.Adj)+len(g.Rev))
}

// addInput records an input graph's CSR footprint.
func (r *tracedRep) addInput(g *graph.Graph) {
	r.csrBytes += csrBytes(g)
	r.mappedBytes += g.MappedBytes()
}

// run is one algorithm execution laid out as Algorithm.Run does it:
// relabel view, engine, validation, report. Single runs measure memory
// around the engine call; a sweep measures around its whole ForEach.
func (r *tracedRep) run(parent int, g *graph.Graph, p vavg.Params, measure bool) (metrics.Run, error) {
	rg := g
	var err error
	r.tr.span(parent, "graph.relabel", func(int) {
		switch p.Relabel {
		case "", "off", "none":
		case "rcm":
			rg = graph.Relabel(g)
		default:
			err = fmt.Errorf("unknown Relabel mode %q", p.Relabel)
		}
	})
	if err != nil {
		return metrics.Run{}, err
	}
	spec, err := specFor(r.alg, p)
	if err != nil {
		return metrics.Run{}, err
	}
	var res *engine.Result
	r.tr.span(parent, "engine.run", func(int) {
		call := func() { res, err = engine.RunSpec(rg, spec, engine.Options{Seed: p.Seed, MaxRounds: p.MaxRounds}) }
		if measure {
			r.mem.measureMem(call)
		} else {
			call()
		}
	})
	if err != nil {
		return metrics.Run{}, err
	}
	var colors, size int
	r.tr.span(parent, "check.validate", func(int) { colors, size, err = validate(r.alg, g, p, res) })
	var rep metrics.Run
	r.tr.span(parent, "metrics.report", func(int) {
		rep = metrics.FromResult(r.alg, g.Name, g.N(), g.M(), p.Arboricity, p.Seed, res)
		rep.Colors, rep.Size = colors, size
	})
	r.mu.Lock()
	if rg != g {
		r.csrBytes += csrBytes(rg)
	}
	r.rounds += int64(res.TotalRounds)
	r.vertexRounds += res.RoundSum
	r.msgs += res.Messages
	r.shards = append(r.shards, res.Shards)
	if err != nil {
		r.failures++
	}
	r.mu.Unlock()
	return rep, err
}

// runTraced is the traced rep: the same program as runPlain, with each
// layer's public functions called from here inside spans.
func runTraced(j job) (repResult, error) {
	w := j.Workload
	r := &tracedRep{tr: newTracer(), alg: w.Alg}
	p := w.params(j.Seed)
	var res repResult
	var err error
	r.tr.span(-1, "rep", func(root int) {
		if w.Sizes != nil {
			res, err = r.sweep(root, j, p)
		} else {
			res, err = r.single(root, j, p)
		}
	})
	self := selfTimes(r.tr.spans)
	sum := func(name string) time.Duration {
		var d time.Duration
		for _, s := range r.tr.spans {
			if s.Name == name {
				d += time.Duration(s.End - s.Start)
			}
		}
		return d
	}
	hits, misses := vavg.GraphCacheStats()
	engineS := self["engine.run"].Seconds()
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	efficiency := 0.0
	if r.workers > 0 {
		efficiency = ratio(sum("sweep.point").Seconds(), float64(r.workers)*sum("parallel.foreach").Seconds())
	}
	res.Layers = map[string]float64{
		"graph.input_s":                  self["graph.input"].Seconds(),
		"graph.relabel_s":                self["graph.relabel"].Seconds(),
		"graph.csr_mib":                  float64(r.csrBytes) / (1 << 20),
		"graph.mapped_mib":               float64(r.mappedBytes) / (1 << 20),
		"graph.cache_hits":               float64(hits),
		"graph.cache_misses":             float64(misses),
		"engine.run_s":                   engineS,
		"engine.vertex_rounds_per_s":     ratio(float64(r.vertexRounds), engineS),
		"engine.ns_per_message":          ratio(engineS*1e9, float64(r.msgs)),
		"engine.allocs":                  float64(r.mem.allocs),
		"engine.alloc_mib":               float64(r.mem.allocBytes) / (1 << 20),
		"engine.allocs_per_vertex_round": ratio(float64(r.mem.allocs), float64(r.vertexRounds)),
		"engine.gc_cycles":               float64(r.mem.gcCycles),
		"engine.gc_pause_s":              r.mem.gcPause.Seconds(),
		"engine.rounds":                  float64(r.rounds),
		"engine.vertex_rounds":           float64(r.vertexRounds),
		"engine.messages":                float64(r.msgs),
		"check.validate_s":               self["check.validate"].Seconds(),
		"check.failures":                 float64(r.failures),
		"metrics.report_s":               self["metrics.report"].Seconds(),
		"parallel.points":                float64(r.points),
		"parallel.efficiency":            efficiency,
	}
	res.Spans = r.tr.spans
	res.Shards = r.shards
	return res, err
}

// single is a traced single-run rep.
func (r *tracedRep) single(root int, j job, p vavg.Params) (repResult, error) {
	var g *graph.Graph
	var err error
	start := time.Now()
	r.tr.span(root, "graph.input", func(int) { g, err = input(j.Workload, j.Seed, j.File) })
	setup := time.Since(start)
	if err != nil {
		return repResult{}, err
	}
	r.addInput(g)
	start = time.Now()
	rep, err := r.run(root, g, p, true)
	runS := time.Since(start).Seconds()
	return repResult{SetupS: setup.Seconds(), RunS: runS, Counters: reportCounters(rep)}, err
}

// sweep is a traced sweep rep, laid out as vavg.Sweep does it: serial
// gens, then parallel.ForEach over the (size, seed) points, then medians.
func (r *tracedRep) sweep(root int, j job, p vavg.Params) (repResult, error) {
	w := j.Workload
	seeds := sweepSeeds(j.Seed)
	var setup time.Duration
	var genErr error
	gen := sweepGen(w, j.Seed, &setup, &genErr)
	graphs := make([]*graph.Graph, len(w.Sizes))
	for i, n := range w.Sizes {
		r.tr.span(root, "graph.input", func(int) { graphs[i] = gen(n) })
		if genErr != nil {
			return repResult{}, genErr
		}
		r.addInput(graphs[i])
	}
	total := len(w.Sizes) * len(seeds)
	r.points, r.workers = total, parallel.Workers(runtime.NumCPU(), total)
	runs := make([]metrics.Run, total)
	errs := make([]error, total)
	start := time.Now()
	r.tr.span(root, "parallel.foreach", func(fe int) {
		r.mem.measureMem(func() {
			parallel.ForEach(r.workers, total, func(i int) {
				pp := p
				pp.Seed = seeds[i%len(seeds)]
				r.tr.span(fe, "sweep.point", func(pt int) { runs[i], errs[i] = r.run(pt, graphs[i/len(seeds)], pp, false) })
			})
		})
	})
	var points []vavg.SweepPoint
	for si, g := range graphs {
		med := metrics.Median(runs[si*len(seeds) : (si+1)*len(seeds)])
		points = append(points, vavg.SweepPoint{
			N: g.N(), M: g.M(), VertexAvg: med.VertexAvg, WorstCase: med.WorstCase,
			Colors: med.Colors, Size: med.Size, Messages: med.Messages,
		})
	}
	runS := time.Since(start).Seconds()
	return repResult{SetupS: setup.Seconds(), RunS: runS, Counters: sweepCounters(points)}, errors.Join(errs...)
}
