package coloring

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestLogStar(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 0}, {2, 1}, {4, 2}, {16, 3}, {65536, 4}, {1 << 20, 5},
	}
	for _, c := range cases {
		if got := LogStar(c.n); got != c.want {
			t.Errorf("LogStar(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestIterLog(t *testing.T) {
	if IterLog(1<<16, 1) != 16 {
		t.Errorf("IterLog(2^16,1) = %d", IterLog(1<<16, 1))
	}
	if IterLog(1<<16, 2) != 4 {
		t.Errorf("IterLog(2^16,2) = %d", IterLog(1<<16, 2))
	}
	if IterLog(1<<16, 10) != 1 {
		t.Errorf("IterLog(2^16,10) = %d", IterLog(1<<16, 10))
	}
	if IterLog(100, 0) != 100 {
		t.Errorf("IterLog(100,0) = %d", IterLog(100, 0))
	}
}

func TestRhoTinyN(t *testing.T) {
	// Regression: Rho(1) used to loop forever (IterLog floors at 1).
	for _, n := range []int{1, 2, 3, 4} {
		if r := Rho(n); r != 2 {
			t.Errorf("Rho(%d) = %d, want 2", n, r)
		}
	}
}

func TestRhoMonotoneAndBounded(t *testing.T) {
	for _, n := range []int{16, 256, 65536, 1 << 20} {
		r := Rho(n)
		if r < 2 {
			t.Errorf("Rho(%d) = %d < 2", n, r)
		}
		if IterLog(n, r-1) < LogStar(n) {
			t.Errorf("Rho(%d) = %d violates defining property", n, r)
		}
	}
}

func TestLinialParamsGuarantee(t *testing.T) {
	for _, p := range []int{10, 1000, 1 << 20} {
		for _, A := range []int{1, 3, 8, 20} {
			q, d := LinialParams(p, A)
			if !isPrime(q) {
				t.Errorf("q=%d not prime", q)
			}
			if q <= A*d {
				t.Errorf("p=%d A=%d: q=%d <= A*d=%d", p, A, q, A*d)
			}
			if polyDegree(p, q) != d {
				t.Errorf("p=%d A=%d: degree mismatch", p, A)
			}
		}
	}
}

func TestLinialScheduleConverges(t *testing.T) {
	for _, A := range []int{2, 4, 12} {
		sched := LinialSchedule(1<<20, A)
		if len(sched) > 8 {
			t.Errorf("A=%d: schedule too long (%d steps), want O(log* n)", A, len(sched))
		}
		final := sched[len(sched)-1]
		if LinialPaletteAfter(final, A) != final {
			t.Errorf("A=%d: schedule does not end at a fixed point: %v", A, sched)
		}
		// Fixed point is O(A^2): generous constant for the polynomial family.
		if final > 64*(A+1)*(A+1) {
			t.Errorf("A=%d: final palette %d not O(A^2)", A, final)
		}
	}
}

// TestLinialStepProperness simulates the reduction on random DAG colorings:
// orient a random graph by ID, give every vertex a distinct color, apply
// LinialStep simultaneously, and confirm properness is preserved along all
// edges at each step of the schedule.
func TestLinialStepProperness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(40)
		A := 2 + rng.Intn(4)
		// Random orientation with out-degree <= A: each vertex picks up to A
		// parents among higher IDs.
		parents := make([][]int, n)
		for v := 0; v < n; v++ {
			for j := 0; j < A && v+1 < n; j++ {
				p := v + 1 + rng.Intn(n-v-1)
				parents[v] = append(parents[v], p)
			}
		}
		colors := make([]int, n)
		for v := range colors {
			colors[v] = v
		}
		sched := LinialSchedule(n, A)
		for step := 1; step < len(sched); step++ {
			p := sched[step-1]
			next := make([]int, n)
			for v := 0; v < n; v++ {
				pc := make([]int, len(parents[v]))
				for j, u := range parents[v] {
					pc[j] = colors[u]
				}
				next[v] = LinialStep(p, A, colors[v], pc)
			}
			for v := 0; v < n; v++ {
				if next[v] >= sched[step] {
					return false
				}
				for _, u := range parents[v] {
					if next[v] == next[u] {
						return false
					}
				}
			}
			colors = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEvalPolyDistinctness(t *testing.T) {
	// Distinct colors yield polynomials agreeing on < d points... verify the
	// counting bound used by LinialStep on a concrete field.
	q, d := 7, 3
	for c1 := 0; c1 < 40; c1++ {
		for c2 := c1 + 1; c2 < 40; c2++ {
			agree := 0
			for x := 0; x < q; x++ {
				if evalPoly(c1, q, d, x) == evalPoly(c2, q, d, x) {
					agree++
				}
			}
			if agree >= d {
				t.Fatalf("colors %d,%d agree on %d >= d=%d points", c1, c2, agree, d)
			}
		}
	}
}

func TestKWPhaseSchedule(t *testing.T) {
	for _, A := range []int{1, 4, 9} {
		m := 30 * (A + 1)
		phases := kwPhases(m, A)
		if len(phases) == 0 {
			t.Fatalf("A=%d: no phases for m=%d", A, m)
		}
		// Each phase at least halves (up to rounding) until <= A+1.
		cur := m
		for _, pm := range phases {
			if pm != cur {
				t.Fatalf("A=%d: phase palette %d, want %d", A, pm, cur)
			}
			groups := (cur + 2*(A+1) - 1) / (2 * (A + 1))
			cur = groups * (A + 1)
		}
		if cur > A+1 {
			t.Errorf("A=%d: schedule ends at %d > A+1", A, cur)
		}
		if KWRounds(m, A) != len(phases)*2*(A+1) {
			t.Errorf("KWRounds inconsistent")
		}
	}
}

func TestLinialMemoMatchesSearch(t *testing.T) {
	for _, p := range []int{2, 10, 1000, 200000, 1 << 40} {
		for A := 1; A <= 64; A++ {
			q, d := LinialParams(p, A)
			wq, wd := linialParamsSearch(p, A)
			if q != wq || d != wd {
				t.Errorf("LinialParams(%d, %d) = (%d, %d), search gives (%d, %d)", p, A, q, d, wq, wd)
			}
			got, want := LinialSchedule(p, A), linialScheduleSearch(p, A)
			if !slices.Equal(got, want) {
				t.Errorf("LinialSchedule(%d, %d) = %v, search gives %v", p, A, got, want)
			}
		}
	}
}

func TestLinialScheduleMemoShared(t *testing.T) {
	a, b := LinialSchedule(200000, 8), LinialSchedule(200000, 8)
	if &a[0] != &b[0] {
		t.Error("repeat LinialSchedule call returned a different backing array")
	}
}

func TestLinialMemoAllocs(t *testing.T) {
	sched := LinialSchedule(200000, 8)
	parents := []int{7, 19, 123456, 199999, 4242, 31, 77, 150000}
	if got := testing.AllocsPerRun(100, func() { LinialSchedule(200000, 8) }); got != 0 {
		t.Errorf("warm LinialSchedule: %v allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { LinialStep(sched[0], 8, 100, parents) }); got != 0 {
		t.Errorf("LinialStep: %v allocs/op, want 0", got)
	}
}

// TestKWPhasesMemo checks the kwPhases memo against the unmemoized
// search, that repeat calls share one backing array, and that the window
// helpers built on it no longer allocate once warm.
func TestKWPhasesMemo(t *testing.T) {
	for _, A := range []int{1, 2, 4, 8, 12, 33} {
		for _, m := range []int{1, A, A + 1, A + 2, 2 * (A + 1), 30 * (A + 1), 200000} {
			if got, want := kwPhases(m, A), kwPhasesSearch(m, A); !slices.Equal(got, want) {
				t.Errorf("kwPhases(%d, %d) = %v, search gives %v", m, A, got, want)
			}
		}
	}
	a, b := kwPhases(200000, 8), kwPhases(200000, 8)
	if &a[0] != &b[0] {
		t.Error("repeat kwPhases call returned a different backing array")
	}
	m := LinialFinalPalette(200000, 8)
	if got := testing.AllocsPerRun(100, func() { KWRounds(m, 8) }); got != 0 {
		t.Errorf("warm KWRounds: %v allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { DeltaPlus1Rounds(200000, 8) }); got != 0 {
		t.Errorf("warm DeltaPlus1Rounds: %v allocs/op, want 0", got)
	}
}

// TestLinialMemoConcurrentColdKeys has 8 goroutines look up keys no other
// test uses, all at once: every caller must see the search's values, and
// the schedule callers one shared backing array per key.
func TestLinialMemoConcurrentColdKeys(t *testing.T) {
	const workers = 8
	ps := []int{123457, 98765, 5000011, 1 << 33}
	const A = 97
	scheds := make([][][]int, workers)
	params := make([][][2]int, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for _, p := range ps {
				scheds[w] = append(scheds[w], LinialSchedule(p, A))
				q, d := LinialParams(p+1, A)
				params[w] = append(params[w], [2]int{q, d})
			}
		}(w)
	}
	close(start)
	wg.Wait()
	for i, p := range ps {
		want := linialScheduleSearch(p, A)
		wq, wd := linialParamsSearch(p+1, A)
		for w := 0; w < workers; w++ {
			if !slices.Equal(scheds[w][i], want) {
				t.Errorf("worker %d: LinialSchedule(%d, %d) = %v, want %v", w, p, A, scheds[w][i], want)
			}
			if &scheds[w][i][0] != &scheds[0][i][0] {
				t.Errorf("worker %d: LinialSchedule(%d, %d) returned its own backing array", w, p, A)
			}
			if params[w][i] != [2]int{wq, wd} {
				t.Errorf("worker %d: LinialParams(%d, %d) = %v, want (%d, %d)", w, p+1, A, params[w][i], wq, wd)
			}
		}
	}
}

// TestEvalPolyMatchesHorner pins evalPoly's values to Horner's rule on the
// base-q digits, so the colors LinialStep picks stay what they always were.
func TestEvalPolyMatchesHorner(t *testing.T) {
	horner := func(c, q, d, x int) int {
		digits := make([]int, d)
		for i := range digits {
			digits[i] = c % q
			c /= q
		}
		y := 0
		for i := d - 1; i >= 0; i-- {
			y = (y*x + digits[i]) % q
		}
		return y
	}
	for _, p := range []int{10, 1000, 200000, 1 << 40} {
		for _, A := range []int{1, 2, 8, 33} {
			q, d := LinialParams(p, A)
			for _, c := range []int{0, 1, q - 1, q, p / 3, p - 1} {
				for x := 0; x < q; x++ {
					if got, want := evalPoly(c, q, d, x), horner(c, q, d, x); got != want {
						t.Fatalf("evalPoly(%d, %d, %d, %d) = %d, Horner gives %d", c, q, d, x, got, want)
					}
				}
			}
		}
	}
}
