// Package coloring implements the vertex-coloring machinery of the paper:
// the Linial-style color reduction on forest decompositions (Procedure
// Arb-Linial-Coloring, used by Sections 7.2, 7.3, 7.6), Kuhn-Wattenhofer
// palette-halving reduction and greedy class-iteration reduction (used as
// the (Delta+1)- and (deg+1)-list-coloring subroutines on H-sets),
// Cole-Vishkin 3-coloring of rooted forests, and the complete coloring
// algorithms of Sections 7.2, 7.3 and 7.4.
package coloring

import (
	"math"

	"vavg/internal/memo"
)

// LogStar returns log* n with base-2 logarithms: the number of times log2
// must be applied to n before the value drops to at most 1.
func LogStar(n int) int {
	s := 0
	x := float64(n)
	for x > 1 {
		x = math.Log2(x)
		s++
	}
	return s
}

// IterLog returns log^(k) n (k-fold iterated base-2 logarithm), floored at
// 1: log^(0) n = n.
func IterLog(n, k int) int {
	x := float64(n)
	for i := 0; i < k; i++ {
		if x <= 1 {
			return 1
		}
		x = math.Log2(x)
	}
	if x < 1 {
		return 1
	}
	return int(math.Ceil(x))
}

// Rho returns rho(n), the largest k such that log^(k-1) n >= log* n
// (Section 7.5). The segmentation scheme accepts 2 <= k <= rho(n).
// For tiny n (log* n <= 1, where every iterated logarithm is already at
// its floor) rho degenerates to the minimum legal value 2.
func Rho(n int) int {
	ls := LogStar(n)
	if ls <= 1 {
		return 2
	}
	k := 1
	for IterLog(n, k) >= ls {
		k++
	}
	if k < 2 {
		return 2
	}
	return k
}

// isPrime reports primality by trial division; palettes keep q small
// (O(A log n)), so this is never a bottleneck.
func isPrime(q int) bool {
	if q < 2 {
		return false
	}
	for d := 2; d*d <= q; d++ {
		if q%d == 0 {
			return false
		}
	}
	return true
}

// polyDegree returns the smallest d >= 1 with q^d >= p.
func polyDegree(p, q int) int {
	d, pow := 1, q
	for pow < p {
		pow *= q
		d++
	}
	return d
}

// Memos of LinialParams and sharedLinialPlan, pure functions of global
// knowledge that every vertex shares (DESIGN.md §1).
var (
	linialParamsMemo memo.Map[linialKey, [2]int] // {q, d}
	linialPlanMemo   memo.Map[linialKey, *linialPlan]
)

type linialKey struct{ p, A int }

// LinialParams returns the prime field size q and polynomial degree d used
// to reduce a proper p-coloring to a q^2-coloring on an orientation with
// out-degree at most A: the smallest prime q with q^d >= p and q > A*d.
// Distinct colors map to distinct degree-<d polynomials over F_q; a
// polynomial pair agrees on fewer than d points, so the A parents of a
// vertex rule out fewer than A*d < q evaluation points, leaving a free
// point (x, f(x)) that becomes the new color x*q + f(x). The result is
// memoized per (p, A).
func LinialParams(p, A int) (q, d int) {
	qd := linialParamsMemo.Get(linialKey{p, A}, func() [2]int {
		q, d := linialParamsSearch(p, A)
		return [2]int{q, d}
	})
	return qd[0], qd[1]
}

// linialParamsSearch is LinialParams without the memo: a trial-division
// search over the primes.
func linialParamsSearch(p, A int) (q, d int) {
	if p < 2 {
		return 2, 1
	}
	for q = 2; ; q++ {
		if !isPrime(q) {
			continue
		}
		d = polyDegree(p, q)
		if q > A*d {
			return q, d
		}
	}
}

// LinialPaletteAfter returns the palette size after one reduction step
// from a p-coloring with out-degree bound A: q^2.
func LinialPaletteAfter(p, A int) int {
	q, _ := LinialParams(p, A)
	return q * q
}

// LinialSchedule returns the sequence of palette sizes visited when
// iterating the reduction from an initial proper p0-coloring until the
// palette reaches a fixed point: schedule[0] = p0, each subsequent entry
// the next palette. The map p -> q(p)^2 is monotone and its fixed points
// are squares of primes exceeding 2A, so the iteration converges to an
// O(A^2) palette in O(log* p0) steps (it may grow once from a small p0
// before stabilizing).
//
// The schedule is sharedLinialPlan(p0, A)'s: every call with the same
// inputs returns the same backing array, shared by all vertices and all
// runs, so callers must treat it as read-only.
func LinialSchedule(p0, A int) []int { return sharedLinialPlan(p0, A).palettes }

// linialPlan is the shared schedule of an iterated reduction from a
// proper p0-coloring with out-degree bound A: the palettes it visits and
// the field of each step, so that a vertex running the reduction reads no
// memo per step. A linialPlan is read-only.
type linialPlan struct {
	palettes []int    // the palette sequence (see LinialSchedule)
	a        int      // the out-degree bound A
	qd       [][2]int // qd[i] is LinialParams(palettes[i], A), the field of step i+1
}

// sharedLinialPlan returns the plan of the reduction from p0 colors with
// out-degree bound A. It is memoized per (p0, A): every call with the
// same inputs returns the same plan, which callers must not modify.
func sharedLinialPlan(p0, A int) *linialPlan {
	return linialPlanMemo.Get(linialKey{p0, A}, func() *linialPlan { return newLinialPlan(p0, A) })
}

// newLinialPlan is sharedLinialPlan without the memo.
func newLinialPlan(p0, A int) *linialPlan {
	lp := &linialPlan{palettes: []int{p0}, a: A}
	p := p0
	for iter := 0; ; iter++ {
		if iter > 64 {
			panic("coloring: Linial schedule failed to converge")
		}
		q, d := LinialParams(p, A)
		if q*q == p {
			return lp
		}
		lp.palettes = append(lp.palettes, q*q)
		lp.qd = append(lp.qd, [2]int{q, d})
		p = q * q
	}
}

// final returns the plan's fixed-point palette size.
func (lp *linialPlan) final() int { return lp.palettes[len(lp.palettes)-1] }

// step returns the color after reduction step i+1, from the palette
// palettes[i], of a vertex with color c whose parents have colors
// parents: LinialStep(palettes[i], A, c, parents) with the step's field
// read from the plan.
func (lp *linialPlan) step(i, c int, parents []int) int {
	return linialStep(lp.qd[i][0], lp.qd[i][1], c, parents)
}

// LinialFinalPalette returns the fixed-point palette size of the iterated
// reduction starting from p0 (the number of colors Procedure
// Arb-Linial-Coloring uses after all its O(log* n) steps): O(A^2).
func LinialFinalPalette(p0, A int) int { return sharedLinialPlan(p0, A).final() }

// evalPoly evaluates the polynomial whose coefficients are the base-q
// digits of c (degree < d) at point x over F_q. It sums the terms from the
// least significant digit up, carrying x^i mod q, so it needs no digit
// buffer; the value mod q is the same as Horner's.
func evalPoly(c, q, d, x int) int {
	y, xi := 0, 1
	for i := 0; i < d; i++ {
		y = (y + c%q*xi) % q
		c /= q
		xi = xi * x % q
	}
	return y
}

// LinialStep computes the new color of a vertex with current color c from
// a proper p-coloring, given the current colors of its at most A parents.
// The result lies in [0, q^2) and differs from every parent's LinialStep
// result as well as from the parents' current colors' set points, so
// applying LinialStep simultaneously everywhere preserves properness along
// oriented edges. It panics if no free point exists, which would indicate
// a violated precondition (c == parent color, or more than A parents).
func LinialStep(p, A, c int, parents []int) int {
	q, d := LinialParams(p, A)
	return linialStep(q, d, c, parents)
}

// linialStep is LinialStep on the field F_q with degree-<d polynomials.
func linialStep(q, d, c int, parents []int) int {
	for x := 0; x < q; x++ {
		y := evalPoly(c, q, d, x)
		free := true
		for _, pc := range parents {
			if evalPoly(pc, q, d, x) == y {
				free = false
				break
			}
		}
		if free {
			return x*q + y
		}
	}
	panic("coloring: no free evaluation point (precondition violated)")
}
