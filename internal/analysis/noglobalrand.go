package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Noglobalrand enforces the engine's seeding contract: equal seeds must
// produce byte-identical Results, so vertex code — any function that
// receives the *engine.API handle, which is how Programs, StepPrograms,
// StepFns, and their helpers are all written — may draw randomness only
// from api.Rand(), the per-(run seed, vertex ID) PRNG, and may not branch
// on wall-clock time or process environment. Two rule sets apply:
//
//   - inside vertex code (including test files, whose inline Programs
//     feed the equivalence suites): calls to the global math/rand
//     top-level functions, time.Now/Since/Until, os.Getenv/LookupEnv/
//     Environ, and runtime.GOMAXPROCS/NumCPU/NumGoroutine are flagged;
//
//   - everywhere else in non-test files: the global math/rand functions
//     are still flagged, because any unseeded draw (graph generation,
//     experiment setup) breaks run-to-run reproducibility. Constructing
//     seeded generators (rand.New, rand.NewSource) is always fine.
var Noglobalrand = &Analyzer{
	Name: "noglobalrand",
	Doc:  "forbids global math/rand, wall-clock, and environment dependence in vertex code",
	Run:  runNoglobalrand,
}

// randConstructors are the math/rand package-level functions that build
// explicitly-seeded state rather than touching the global source.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// forbiddenInVertexCode maps package path -> function names whose results
// depend on the machine or the moment rather than on (seed, vertex).
var forbiddenInVertexCode = map[string]map[string]bool{
	"time":    {"Now": true, "Since": true, "Until": true},
	"os":      {"Getenv": true, "LookupEnv": true, "Environ": true},
	"runtime": {"GOMAXPROCS": true, "NumCPU": true, "NumGoroutine": true},
}

func runNoglobalrand(pass *Pass) {
	for _, file := range pass.Files {
		fname := pass.Fset.Position(file.Pos()).Filename
		isTest := strings.HasSuffix(fname, "_test.go")
		vertexRegions := vertexCodeRegions(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			path, name, ok := pkgFunc(pass.Info, call)
			if !ok {
				return true
			}
			inVertex := inRegions(vertexRegions, call.Pos())
			if isGlobalRand(path, name) && (inVertex || !isTest) {
				if inVertex {
					pass.Reportf(call.Pos(), "global math/rand call %s.%s in vertex code; use api.Rand(), the per-vertex seeded PRNG", path, name)
				} else {
					pass.Reportf(call.Pos(), "global math/rand call %s.%s; use a rand.New(rand.NewSource(seed)) generator so runs are reproducible", path, name)
				}
				return true
			}
			if inVertex && forbiddenInVertexCode[path][name] {
				pass.Reportf(call.Pos(), "%s.%s in vertex code; vertex behavior must depend only on (seed, vertex, round), not the clock, environment, or machine", path, name)
			}
			return true
		})
	}
}

func isGlobalRand(path, name string) bool {
	if path != "math/rand" && path != "math/rand/v2" {
		return false
	}
	return !randConstructors[name]
}

// region is a half-open source interval covering one function body.
type region struct{ lo, hi token.Pos }

// vertexCodeRegions returns the body extents of every function whose
// signature carries a *engine.API parameter. Nested closures inside those
// bodies execute on the vertex path too, so containment is positional.
func vertexCodeRegions(pass *Pass, file *ast.File) []region {
	var regions []region
	for _, fn := range funcsIn(pass, file) {
		if sigHasAPIParam(fn.sig) {
			regions = append(regions, region{lo: fn.body.Pos(), hi: fn.body.End()})
		}
	}
	return regions
}

func inRegions(regions []region, pos token.Pos) bool {
	for _, r := range regions {
		if r.lo <= pos && pos < r.hi {
			return true
		}
	}
	return false
}
