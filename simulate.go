package vavg

import (
	"fmt"

	"vavg/internal/engine"
	"vavg/internal/extend"
	"vavg/internal/metrics"
)

// The simulator's vertex-side types, re-exported so downstream users can
// write their own vertex programs against the LOCAL model and measure
// their vertex-averaged complexity with the same accounting as the
// paper's algorithms.
type (
	// API is the per-vertex interface of the simulator: identity,
	// neighborhood, per-round message exchange, deterministic randomness.
	API = engine.API
	// Program is per-vertex code; its return value is the vertex output,
	// broadcast to neighbors in one final counted round.
	Program = engine.Program
	// Msg is a received message; integer payloads sent on the
	// allocation-free fast lane (API.SendInt / API.BroadcastInt) are
	// read with Msg.AsInt, boxed payloads through Msg.Data.
	Msg = engine.Msg
	// Final is the payload of a terminating neighbor's last broadcast.
	Final = engine.Final
	// SimResult is the raw engine outcome with per-vertex round counts.
	SimResult = engine.Result
)

// Simulate runs a custom vertex Program on g in the synchronous
// message-passing model and returns the raw result; Report-style
// accounting can be derived with NewReport. It honors Params.Relabel.
// Params out of range, as Algorithm.Run checks them, and a non-zero
// Params.Scenario are an ErrBadParams. A run that fails (a vertex panics,
// or the run exceeds MaxRounds) returns the engine's error wrapped as
// "vavg: simulate on <graph>: ...".
func Simulate(g *Graph, prog Program, p Params) (*SimResult, error) {
	p = p.withDefaults(g)
	if err := p.validate(); err != nil {
		return nil, err
	}
	rg, err := faultFreeGraph(g, p)
	if err != nil {
		return nil, err
	}
	res, err := engine.Run(rg, prog, engine.Options{Seed: p.Seed, MaxRounds: p.MaxRounds})
	if err != nil {
		return nil, fmt.Errorf("vavg: simulate on %s: %w", g.Name, err)
	}
	return res, nil
}

// faultFreeGraph resolves the graph Simulate and ListColoring run on,
// relabeled as Params.Relabel asks. Neither entry point has a degraded
// audit for a fault scenario, so a non-zero Scenario is an ErrBadParams.
func faultFreeGraph(g *Graph, p Params) (*Graph, error) {
	if p.Scenario != nil && !p.Scenario.IsZero() {
		return nil, fmt.Errorf("%w: Scenario is supported by Algorithm.Run and Sweep only", ErrBadParams)
	}
	return relabelFor(g, p)
}

// NewReport derives the paper's measurements from a raw simulation result.
func NewReport(name string, g *Graph, p Params, res *SimResult) Report {
	p = p.withDefaults(g)
	return metrics.FromResult(name, g.Name, g.N(), g.M(), p.Arboricity, p.Seed, res)
}

// ListColoring solves the (deg+1)-list-coloring problem of Section 8.2
// through the general extension framework (Theorem 8.2): every vertex v
// ends with a color from list(v), which must contain at least deg(v)+1
// colors, adjacent vertices differ, and the vertex-averaged complexity is
// a function of the arboricity rather than of Delta. It runs the
// framework's step form, and the outputs are validated before returning.
// It honors Params.Relabel; a non-zero Params.Scenario, and an
// Arboricity under which Procedure Partition cannot finish on g, are an
// ErrBadParams. A failed run or audit is wrapped, like Algorithm.Run's, as
// "vavg: list-coloring on <graph>: ...".
func ListColoring(g *Graph, p Params, list func(v int) []int) (Report, []int, error) {
	a := p.Arboricity
	p = p.withDefaults(g)
	if err := p.validate(); err != nil {
		return Report{}, nil, err
	}
	if err := checkArboricity(g, a, p.Eps); err != nil {
		return Report{}, nil, err
	}
	rg, err := faultFreeGraph(g, p)
	if err != nil {
		return Report{}, nil, err
	}
	spec := engine.Spec{Step: extend.ListColoringStep(p.Arboricity, p.Eps, list)}
	res, err := engine.RunSpec(rg, spec, engine.Options{Seed: p.Seed, MaxRounds: p.MaxRounds})
	if err != nil {
		return Report{}, nil, fmt.Errorf("vavg: list-coloring on %s: %w", g.Name, err)
	}
	rep := NewReport("list-coloring", g, p, res)
	cols := extend.Colors(res.Output)
	rep.Colors = len(distinctInts(cols))
	if err := auditListColoring(g, cols, list); err != nil {
		return rep, cols, fmt.Errorf("vavg: list-coloring on %s: %w", g.Name, err)
	}
	return rep, cols, nil
}

func distinctInts(xs []int) map[int]bool {
	m := map[int]bool{}
	for _, x := range xs {
		m[x] = true
	}
	return m
}

func auditListColoring(g *Graph, cols []int, list func(v int) []int) error {
	for v, c := range cols {
		ok := false
		for _, lc := range list(v) {
			if lc == c {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("vertex %d color %d outside its list", v, c)
		}
		for _, w := range g.Neighbors(v) {
			if cols[w] == c {
				return fmt.Errorf("edge {%d,%d} monochromatic", v, w)
			}
		}
	}
	return nil
}
