// Fixture for the hotpath analyzer: functions carrying the
// //vavg:hotpath directive must stay allocation-free.
package fixture

import "fmt"

func sink(v any) {}

// hotAllocs commits every flagged construct at once.
//
//vavg:hotpath
func hotAllocs(xs []int) []int {
	seen := map[int]bool{} // want "map literal allocates"
	fmt.Println(len(seen)) // want "fmt call allocates"
	var out []int
	for _, x := range xs {
		out = append(out, x) // want "no reserved capacity"
	}
	return out
}

// hotBoxes passes a concrete value to an interface parameter — the
// implicit conversion allocates.
//
//vavg:hotpath
func hotBoxes(x int) {
	sink(x) // want "boxes int into interface parameter"
}

// hotBoxesByAssignment stores concrete values into interface-typed
// variables: the implicit conversion boxes just as an argument does.
// Interface-to-interface stores and nil convert nothing.
//
//vavg:hotpath
func hotBoxesByAssignment(k int, y any) any {
	var x any = int64(k) // want "assignment boxes int64 into an interface variable"
	x = k                // want "assignment boxes int into an interface variable"
	sink(x)
	x = y
	var z any = y
	z = nil
	sink(z)
	return x
}

type slot struct {
	data any
	ival int64
}

// hotBoxesByField stores concrete values into an interface-typed field of
// a struct composite literal, keyed or positional: the field store boxes
// just as an assignment does. Interface values, nil and non-interface
// fields convert nothing.
//
//vavg:hotpath
func hotBoxesByField(k int, y any) []slot {
	return []slot{
		{data: k},            // want "composite literal boxes int into interface field data"
		{int64(k), int64(k)}, // want "composite literal boxes int64 into interface field data"
		{data: y, ival: 1},
		{data: nil},
		{ival: int64(k)},
	}
}

// hotCapped appends into a parameter and a preallocated slice — both
// trusted by the engine's reuse discipline.
//
//vavg:hotpath
func hotCapped(xs []int, out []int) []int {
	tmp := make([]int, 0, len(xs))
	for _, x := range xs {
		tmp = append(tmp, x)
	}
	for _, x := range tmp {
		out = append(out, x)
	}
	return out
}

// hotGuard formats rich context on a panic path: error guards ending in
// panic are cold by construction and exempt.
//
//vavg:hotpath
func hotGuard(k, n int) {
	if k < 0 || k >= n {
		panic(fmt.Sprintf("index %d out of range [0,%d)", k, n))
	}
}

// hotSuppressed shows the sanctioned escape hatch.
//
//vavg:hotpath
func hotSuppressed() map[int]bool {
	//lint:ignore hotpath fixture: setup path, runs once per run
	return map[int]bool{}
}

// coldUnannotated is outside the contract: no directive, no checks.
func coldUnannotated() map[int]bool {
	fmt.Println("cold")
	return map[int]bool{}
}
