package check

import (
	"strings"
	"testing"

	"vavg/internal/graph"
)

func ring4() *graph.Graph { return graph.Ring(4) }

func TestVertexColoring(t *testing.T) {
	g := ring4()
	if err := VertexColoring(g, []int{0, 1, 0, 1}, 2); err != nil {
		t.Errorf("proper 2-coloring rejected: %v", err)
	}
	if err := VertexColoring(g, []int{0, 0, 1, 1}, 2); err == nil {
		t.Error("monochromatic edge accepted")
	}
	if err := VertexColoring(g, []int{0, 1, 0, 5}, 2); err == nil {
		t.Error("palette overflow accepted")
	}
	if err := VertexColoring(g, []int{0, 1, 0, -1}, 0); err == nil {
		t.Error("negative color accepted")
	}
	if err := VertexColoring(g, []int{0, 1}, 0); err == nil {
		t.Error("wrong length accepted")
	}
	if CountColors([]int{3, 1, 3, 7}) != 3 {
		t.Error("CountColors wrong")
	}
}

func TestEdgeColoring(t *testing.T) {
	g := graph.Path(3) // edges {0,1},{1,2}
	good := map[graph.Edge]int{{U: 0, V: 1}: 0, {U: 1, V: 2}: 1}
	if err := EdgeColoring(g, good, 2); err != nil {
		t.Errorf("proper edge coloring rejected: %v", err)
	}
	bad := map[graph.Edge]int{{U: 0, V: 1}: 0, {U: 1, V: 2}: 0}
	if err := EdgeColoring(g, bad, 2); err == nil {
		t.Error("conflicting edge colors accepted")
	}
	missing := map[graph.Edge]int{{U: 0, V: 1}: 0}
	if err := EdgeColoring(g, missing, 2); err == nil {
		t.Error("missing edge accepted")
	}
}

func TestMIS(t *testing.T) {
	g := ring4()
	if err := MIS(g, []bool{true, false, true, false}); err != nil {
		t.Errorf("valid MIS rejected: %v", err)
	}
	if err := MIS(g, []bool{true, true, false, false}); err == nil {
		t.Error("non-independent set accepted")
	}
	if err := MIS(g, []bool{true, false, false, false}); err == nil {
		t.Error("non-maximal set accepted")
	}
}

func TestMaximalMatching(t *testing.T) {
	g := ring4()
	if err := MaximalMatching(g, []int32{1, 0, 3, 2}); err != nil {
		t.Errorf("perfect matching rejected: %v", err)
	}
	// On a path 0-1-2-3, matching just {1,2} is maximal.
	if err := MaximalMatching(graph.Path(4), []int32{-1, 2, 1, -1}); err != nil {
		t.Errorf("maximal path matching rejected: %v", err)
	}
	if err := MaximalMatching(g, []int32{-1, -1, -1, -1}); err == nil {
		t.Error("empty non-maximal matching accepted")
	}
	if err := MaximalMatching(g, []int32{1, 2, 1, -1}); err == nil {
		t.Error("asymmetric matching accepted")
	}
	if err := MaximalMatching(g, []int32{2, 3, 0, 1}); err == nil {
		t.Error("non-adjacent pairing accepted")
	}
	// An out-of-range partner is an error naming the vertex and partner,
	// not an index panic.
	err := MaximalMatching(graph.Path(4), []int32{7, -1, -1, -1})
	if err == nil || !strings.Contains(err.Error(), "vertex 0 matched to 7") {
		t.Errorf("out-of-range partner: got %v, want an error naming vertex 0 and partner 7", err)
	}
}

func TestHPartition(t *testing.T) {
	g := graph.Star(5)
	// Leaves join H_1 (center is their only neighbor), center joins H_2.
	h := []int{2, 1, 1, 1, 1}
	if err := HPartition(g, h, 1); err != nil {
		t.Errorf("valid partition rejected: %v", err)
	}
	// Center in H_1 has 4 later neighbors: violates maxLater=1.
	if err := HPartition(g, []int{1, 1, 1, 1, 1}, 1); err == nil {
		t.Error("invariant violation accepted")
	}
	if err := HPartition(g, []int{0, 1, 1, 1, 1}, 4); err == nil {
		t.Error("zero H-index accepted")
	}
}

func TestAcyclicOrientation(t *testing.T) {
	g := graph.Ring(3)
	// Acyclic: 0->1, 0->2, 1->2.
	o := Orientation{{U: 0, V: 1}: 1, {U: 0, V: 2}: 2, {U: 1, V: 2}: 2}
	outDeg, length, err := AcyclicOrientation(g, o, 2, 2)
	if err != nil {
		t.Fatalf("acyclic orientation rejected: %v", err)
	}
	if outDeg != 2 || length != 2 {
		t.Errorf("outDeg=%d length=%d, want 2,2", outDeg, length)
	}
	// Directed triangle.
	cyc := Orientation{{U: 0, V: 1}: 1, {U: 1, V: 2}: 2, {U: 0, V: 2}: 0}
	if _, _, err := AcyclicOrientation(g, cyc, 0, 0); err == nil ||
		!strings.Contains(err.Error(), "cycle") {
		t.Errorf("directed cycle accepted: %v", err)
	}
	// Out-degree budget.
	if _, _, err := AcyclicOrientation(g, o, 1, 0); err == nil {
		t.Error("out-degree overflow accepted")
	}
	// Length budget.
	if _, _, err := AcyclicOrientation(g, o, 0, 1); err == nil {
		t.Error("length overflow accepted")
	}
}

func TestForestDecomposition(t *testing.T) {
	g := graph.Ring(4)
	o := Orientation{
		{U: 0, V: 1}: 1, {U: 1, V: 2}: 2, {U: 2, V: 3}: 3, {U: 0, V: 3}: 3,
	}
	labels := map[graph.Edge]int{
		{U: 0, V: 1}: 1, {U: 1, V: 2}: 1, {U: 2, V: 3}: 1, {U: 0, V: 3}: 2,
	}
	if err := ForestDecomposition(g, o, labels, 2); err != nil {
		t.Errorf("valid decomposition rejected: %v", err)
	}
	// Two outgoing label-1 edges from vertex 0.
	badLabels := map[graph.Edge]int{
		{U: 0, V: 1}: 1, {U: 1, V: 2}: 1, {U: 2, V: 3}: 1, {U: 0, V: 3}: 1,
	}
	if err := ForestDecomposition(g, o, badLabels, 2); err == nil {
		t.Error("double label-1 out-edge accepted")
	}
	// Label out of range.
	badRange := map[graph.Edge]int{
		{U: 0, V: 1}: 1, {U: 1, V: 2}: 1, {U: 2, V: 3}: 1, {U: 0, V: 3}: 9,
	}
	if err := ForestDecomposition(g, o, badRange, 2); err == nil {
		t.Error("label out of range accepted")
	}
}
