package vavg

import (
	"fmt"
	"sync"

	"vavg/internal/graph"
)

// sharedGraphs is the process-wide generated-graph cache behind
// CachedGen. Experiments typically sweep several algorithms over the same
// (family, n, generator params) grid; the cache lets them share one
// generated Graph per grid point instead of regenerating it per
// algorithm.
var sharedGraphs = graph.NewCache()

// CachedGen wraps a size-indexed graph generator with the shared
// read-only graph cache, for use with Sweep. The family name plus the
// name/value params must uniquely identify the generator and every
// parameter that shapes its output besides n — arboricity, generator
// seed — because two generators wrapped with the same identity share
// cache entries. Keys are composed by graph.CacheKey, the one canonical
// spelling, so generated and file-backed graphs (FileGen) can never
// collide. Cached graphs are served to concurrent runs and must never be
// mutated.
//
//	gen := vavg.CachedGen("forests", func(n int) *vavg.Graph {
//		return vavg.ForestUnion(n, 3, 7)
//	}, "a", 3, "seed", 7)
func CachedGen(family string, gen func(n int) *Graph, params ...any) func(n int) *Graph {
	return func(n int) *Graph {
		return sharedGraphs.Get(graph.CacheKey(family, n, params...), func() *Graph { return gen(n) })
	}
}

// FileGen returns a size-indexed graph source backed by a binary CSR
// file (see WriteGraphFile), for use with Sweep anywhere a generator is
// expected. The file is loaded once — raw-layout files as one shared
// read-only mapping — and every sweep worker and algorithm run
// shares the same *Graph. A nonzero requested n must match the file's
// vertex count; a file source has exactly one size, so Sweep over it
// uses Sizes = []int{g.N()} (or 0 to skip the check).
//
// Load failures panic: a sweep's graph source is configuration, and a
// missing or corrupt file should stop the run at the first size, not be
// silently skipped.
func FileGen(path string) func(n int) *Graph {
	return func(n int) *Graph {
		g := sharedGraphs.Get(graph.FileKey(path), func() *Graph {
			g, err := graph.LoadCSR(path)
			if err != nil {
				panic(fmt.Sprintf("vavg: graph file %s: %v", path, err))
			}
			return g
		})
		if n != 0 && g.N() != n {
			panic(fmt.Sprintf("vavg: graph file %s has n=%d, run requested n=%d", path, g.N(), n))
		}
		return g
	}
}

// relabelViews memoizes graph.Relabel views by source graph identity.
// Sweeps fan many (algorithm, size, seed) points over one shared *Graph,
// and the RCM pass plus view construction walks the whole graph (O(n+m)
// plus the sort of each BFS frontier) — paying it once per graph mirrors
// the generated-graph cache's sharing discipline. Views are as immutable
// as their sources and safe to share across concurrent runs.
var relabelViews = struct {
	sync.Mutex
	m map[*Graph]*Graph
}{m: map[*Graph]*Graph{}}

// relabelFor resolves Params.Relabel for one run: the graph itself for
// the off modes, the (cached) RCM view for "rcm", an error for anything
// else.
func relabelFor(g *Graph, p Params) (*Graph, error) {
	switch p.Relabel {
	case "", "off", "none":
		return g, nil
	case "rcm":
	default:
		return nil, fmt.Errorf("%w: unknown Relabel mode %q (valid: off, rcm)", ErrBadParams, p.Relabel)
	}
	relabelViews.Lock()
	defer relabelViews.Unlock()
	v, ok := relabelViews.m[g]
	if !ok {
		v = graph.Relabel(g)
		relabelViews.m[g] = v
	}
	return v, nil
}

// GraphCacheStats reports the shared graph cache's hit and miss counts
// (one miss per generated graph).
func GraphCacheStats() (hits, misses int) { return sharedGraphs.Stats() }

// GraphCachePurge drops every cached graph, releasing the memory to the
// collector (relabeled views included). Long multi-family sweeps call it
// between families.
func GraphCachePurge() {
	sharedGraphs.Purge()
	relabelViews.Lock()
	relabelViews.m = map[*Graph]*Graph{}
	relabelViews.Unlock()
}
