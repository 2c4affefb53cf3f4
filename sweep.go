package vavg

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"vavg/internal/metrics"
	"vavg/internal/parallel"
)

// SweepPoint is one measurement of a size sweep.
type SweepPoint struct {
	N         int     `json:"n"`
	M         int     `json:"m"`
	VertexAvg float64 `json:"vertexAvg"`
	WorstCase int     `json:"worstCase"`
	Colors    int     `json:"colors,omitempty"`
	Size      int     `json:"size,omitempty"`
	Messages  int64   `json:"messages"`
}

// SweepResult is a size sweep of one algorithm over one graph family.
// Family is the family's name: the first graph's name up to its
// parameter list ("forests" for "forests(1000,a=3)"), so it names every
// point's graph.
type SweepResult struct {
	Algorithm string       `json:"algorithm"`
	Family    string       `json:"family"`
	Points    []SweepPoint `json:"points"`
}

// Sweep measures alg across the given sizes, generating each graph with
// gen and reporting medians over seeds (nil seeds means {1,2,3}). Sweeps
// are how the paper's tables are checked empirically; the result exposes
// the growth-shape diagnostics used by EXPERIMENTS.md.
//
// The (size, seed) run points are independent, so they are fanned out
// across p.SweepWorkers goroutines (0 means GOMAXPROCS; see CachedGen for
// sharing graphs across sweeps). Parallel and serial sweeps produce
// byte-identical results: each point derives its PRNG streams from its
// own seed, graphs are generated serially before dispatch (gen may be
// stateful), and results are collected by (size, seed) index, never by
// completion order.
func Sweep(alg Algorithm, gen func(n int) *Graph, sizes []int, seeds []int64, p Params) (*SweepResult, error) {
	if gen == nil {
		return nil, fmt.Errorf("vavg: sweep %s: nil graph generator", alg.Name)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("vavg: sweep %s: empty size list", alg.Name)
	}
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3}
	}
	graphs := make([]*Graph, len(sizes))
	for i, n := range sizes {
		if graphs[i] = gen(n); graphs[i] == nil {
			return nil, fmt.Errorf("vavg: sweep %s: generator returned nil graph at n=%d", alg.Name, n)
		}
	}
	total := len(sizes) * len(seeds)
	runs := make([]Report, total)
	errs := make([]error, total)
	workers := parallel.Workers(p.SweepWorkers, total)
	parallel.ForEach(workers, total, func(i int) {
		si := i / len(seeds)
		pp := p
		pp.Seed = seeds[i%len(seeds)]
		rep, err := alg.Run(graphs[si], pp)
		if err != nil {
			errs[i] = fmt.Errorf("vavg: sweep %s at n=%d: %w", alg.Name, sizes[si], err)
			return
		}
		runs[i] = rep
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	family, _, _ := strings.Cut(graphs[0].Name, "(")
	out := &SweepResult{Algorithm: alg.Name, Family: family}
	for si, n := range sizes {
		med := metrics.Median(runs[si*len(seeds) : (si+1)*len(seeds)])
		out.Points = append(out.Points, SweepPoint{
			N:         n,
			M:         graphs[si].M(),
			VertexAvg: med.VertexAvg,
			WorstCase: med.WorstCase,
			Colors:    med.Colors,
			Size:      med.Size,
			Messages:  med.Messages,
		})
	}
	return out, nil
}

// VertexAvgGrowth fits vertexAvg ~ c * (log n)^e over the sweep and
// returns e: a flat (O(1)-like) series fits e near 0, a Theta(log n)
// series fits e near 1. A sweep of fewer than two distinct sizes has no
// slope to fit, and VertexAvgGrowth returns NaN.
func (s *SweepResult) VertexAvgGrowth() float64 {
	xs := make([]float64, len(s.Points))
	ys := make([]float64, len(s.Points))
	for i, pt := range s.Points {
		xs[i] = math.Log2(float64(pt.N))
		ys[i] = pt.VertexAvg
	}
	return metrics.GrowthExponent(xs, ys)
}

// WriteCSV emits the sweep as CSV with a header row.
func (s *SweepResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"algorithm", "family", "n", "m", "vertex_avg", "worst_case", "colors", "size", "messages"}); err != nil {
		return err
	}
	for _, pt := range s.Points {
		rec := []string{
			s.Algorithm, s.Family,
			fmt.Sprint(pt.N), fmt.Sprint(pt.M),
			fmt.Sprintf("%.4f", pt.VertexAvg), fmt.Sprint(pt.WorstCase),
			fmt.Sprint(pt.Colors), fmt.Sprint(pt.Size), fmt.Sprint(pt.Messages),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON emits the sweep as indented JSON.
func (s *SweepResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
