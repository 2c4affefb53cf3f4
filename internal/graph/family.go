package graph

import (
	"fmt"
	"math"
	"slices"
)

// Families lists the graph-family names MakeFamily accepts, in
// presentation order, for CLI help and error text.
var Families = []string{
	"forests", "ring", "ringshuffled", "path", "star", "starforest",
	"bintree", "tree", "grid", "trigrid", "gnm", "clique", "cliqueforest",
	"hypercube", "caterpillar", "karytree",
}

// MakeFamily constructs a graph family by its CLI name. It is the single
// construction path shared by vavgrun and vavggraph, so every tool
// derives the same graph from the same (family, n, a, seed) triple —
// which is what makes a materialized CSR file interchangeable with its
// generator. The density parameter a feeds the families that take one
// (forest count, gnm edge factor, star sizes); the others ignore it.
//
// Arguments the generators would panic on are errors here that name the
// family and the violated bound, so a bad command line fails cleanly.
func MakeFamily(family string, n, a int, seed int64) (*Graph, error) {
	if !slices.Contains(Families, family) {
		return nil, fmt.Errorf("unknown graph family %q (families: %v)", family, Families)
	}
	if err := checkFamilyArgs(family, n, a); err != nil {
		return nil, err
	}
	switch family {
	case "forests":
		return ForestUnion(n, a, seed), nil
	case "ring":
		return Ring(n), nil
	case "ringshuffled":
		return RingShuffled(n, seed), nil
	case "path":
		return Path(n), nil
	case "star":
		return Star(n), nil
	case "starforest":
		return StarForest(n, 8*a), nil
	case "bintree":
		return CompleteBinaryTree(n), nil
	case "tree":
		return RandomTree(n, seed), nil
	case "grid":
		s := gridSide(n)
		return Grid(s, s), nil
	case "trigrid":
		s := gridSide(n)
		return TriangulatedGrid(s, s), nil
	case "gnm":
		return Gnm(n, a*n, seed), nil
	case "clique":
		return Clique(n), nil
	case "cliqueforest":
		return CliquePlusForest(n, 4*a, seed), nil
	case "hypercube":
		d := 1
		for 1<<d < n {
			d++
		}
		return Hypercube(d), nil
	case "caterpillar":
		return Caterpillar(n), nil
	case "karytree":
		k := a
		if k < 2 {
			k = 2
		}
		return KaryTree(n, k), nil
	}
	panic("graph: family " + family + " is listed in Families but has no generator")
}

// checkFamilyArgs reports the (n, a) preconditions of family's generator.
func checkFamilyArgs(family string, n, a int) error {
	switch {
	case n < 1:
		return fmt.Errorf("graph %s: n = %d, needs n >= 1", family, n)
	case (family == "ring" || family == "ringshuffled") && n < 3:
		return fmt.Errorf("graph %s: n = %d, needs n >= 3", family, n)
	case (family == "forests" || family == "starforest" || family == "cliqueforest") && a < 1:
		return fmt.Errorf("graph %s: a = %d, needs a >= 1", family, a)
	case family == "cliqueforest" && 4*a > n:
		return fmt.Errorf("graph %s: clique of 4a = %d vertices, needs 4a <= n = %d", family, 4*a, n)
	}
	return nil
}

func gridSide(n int) int {
	s := int(math.Sqrt(float64(n)))
	if s < 2 {
		return 2
	}
	return s
}
