package engine

import (
	"math"
	"math/rand"
	"reflect"
	gort "runtime"
	"testing"
	"unsafe"
)

// Script opcodes for runScript: each byte's low nibble picks a draw, its
// high nibble sizes the argument.
const (
	opInt63 = iota
	opUint64
	opIntn
	opInt31n
	opInt63n
	opFloat64
	opPerm
	opShuffle
	opRead
	opBurst // 64·(arg+1) Uint64 draws: carries short fuzz scripts into the ring
	opSeed
	numOps
)

// runScript plays script against rand.New(rand.NewSource(seed)) and
// rand.New over a lazySource with the same seed, failing at the first
// draw where the two disagree. It returns the lazy source for callers
// that inspect how far the stream got.
func runScript(t testing.TB, seed int64, script []byte) *lazySource {
	t.Helper()
	src := newLazySource(seed)
	want, got := rand.New(rand.NewSource(seed)), rand.New(src)
	for i, b := range script {
		arg := int(b >> 4)
		var w, g any
		switch b & 0xf % numOps {
		case opInt63:
			w, g = want.Int63(), got.Int63()
		case opUint64:
			w, g = want.Uint64(), got.Uint64()
		case opIntn:
			n := 1 + arg*0x3ffffff7 // crosses 2³¹, so both Intn paths run
			w, g = want.Intn(n), got.Intn(n)
		case opInt31n:
			n := int32(3 + arg*0x7ffffff)
			w, g = want.Int31n(n), got.Int31n(n)
		case opInt63n:
			n := int64(1)<<62 + int64(arg) // near 2⁶², so rejections happen
			w, g = want.Int63n(n), got.Int63n(n)
		case opFloat64:
			w, g = want.Float64(), got.Float64()
		case opPerm:
			w, g = want.Perm(arg), got.Perm(arg)
		case opShuffle:
			ws, gs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, make([]int, 16)
			copy(gs, ws)
			want.Shuffle(arg, func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
			got.Shuffle(arg, func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
			w, g = ws, gs
		case opRead:
			wb, gb := make([]byte, arg), make([]byte, arg)
			want.Read(wb)
			got.Read(gb)
			w, g = wb, gb
		case opBurst:
			for range 64 * (arg + 1) {
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Fatalf("seed %d: op %d (burst), draw %d of the current seeding: math/rand gave %#x, lazySource %#x",
						seed, i, src.n-1, w, g)
				}
			}
		case opSeed:
			s := seed*31 + int64(b)
			want.Seed(s)
			got.Seed(s)
		}
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("seed %d: op %d (byte %#x, draw %d of the current seeding): math/rand gave %v, lazySource %v",
				seed, i, b, src.n, w, g)
		}
	}
	return src
}

// mixedScript returns n ops other than reseed and burst, drawn from a
// fixed generator so that the test's scripts are reproducible.
func mixedScript(n int, salt int64) []byte {
	r := rand.New(rand.NewSource(salt))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Intn(opBurst)) | byte(r.Intn(16))<<4
	}
	return b
}

// TestLazySourceMatchesMathRand pins the stream contract (DESIGN.md §1):
// for every seed, lazySource yields rand.NewSource's exact stream, through
// every rand.Rand method the vertex programs could call, across a
// mid-stream Seed, and past several wraps of its 607-word ring.
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, int32max, -int32max, 2 * int32max, -2 * int32max,
		int32max * int32max, 1 << 62 / int32max * int32max, 89482311,
		int32max - 1, int32max + 1, math.MinInt64, math.MaxInt64,
	}
	for _, run := range []int64{1, 7, -3, math.MaxInt64} {
		for _, id := range []int64{0, 1, 2999, 1 << 40} {
			for gen := range int32(4) {
				seeds = append(seeds, streamSeed(run, id, gen))
			}
		}
	}
	reseed := []byte{opSeed | 9<<4}
	for i, seed := range seeds {
		// Every seed runs a mixed prefix long enough to fill the ring, a
		// reseed (which reuses the ring) and a mixed suffix; every fourth
		// seed's suffix wraps the ring eight times.
		suffix := 400
		if i%4 == 0 {
			suffix = 8*rngLen + 200
		}
		script := append(append(mixedScript(700, seed), reseed...), mixedScript(suffix, ^seed)...)
		src := runScript(t, seed, script)
		if i%4 == 0 && src.n < 8*rngLen {
			t.Errorf("seed %d: only %d draws after the reseed; the ring wrapped fewer than 8 times", seed, src.n)
		}
	}
}

// maxFuzzOps bounds a fuzz script. Bursts of up to 1,024 draws still carry
// 64 ops a hundred times around the ring, and short inputs keep the
// fuzzer's minimizer, which is quadratic in input length, from stalling a
// 10 s run.
const maxFuzzOps = 64

// FuzzLazySource compares lazySource against math/rand on arbitrary seeds
// and draw scripts (see runScript for the opcodes).
func FuzzLazySource(f *testing.F) {
	f.Add(int64(0), []byte{opInt63, opBurst | 15<<4, opIntn | 3<<4})
	f.Add(int64(math.MinInt64), []byte{opBurst | 4<<4, opSeed, opBurst | 9<<4, opRead | 7<<4})
	f.Add(int64(int32max), []byte{opPerm | 15<<4, opShuffle | 9<<4, opFloat64, opInt63n})
	f.Add(streamSeed(1, 7, 2), []byte{opBurst | 15<<4, opBurst | 15<<4, opBurst | 15<<4, opUint64})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > maxFuzzOps {
			script = script[:maxFuzzOps]
		}
		runScript(t, seed, script)
	})
}

// TestRandFirstDrawAllocs pins what a vertex pays for randomness: its
// first Rand() plus eight Int63 draws allocate at most 3 heap objects and
// 256 bytes. math/rand's seeding allocated a 4.9 KB register per vertex.
// Programs that never draw pay only API's rng pointer, and the restart
// generation is read from the core at the first draw, so API stays 48
// bytes on 64-bit targets.
func TestRandFirstDrawAllocs(t *testing.T) {
	if size := unsafe.Sizeof(API{}); unsafe.Sizeof(uintptr(0)) == 8 && size != 48 {
		t.Errorf("API is %d bytes, want 48", size)
	}
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(1))
	c := &core{seed: 42}
	const runs = 2000
	apis := make([]API, runs+1)
	for v := range apis {
		apis[v] = API{core: c, v: int32(v)}
	}
	var sink int64
	draw := func(a *API) {
		r := a.Rand()
		for range 8 {
			sink += r.Int63()
		}
	}
	draw(&apis[runs]) // warm up outside the measurement
	var before, after gort.MemStats
	gort.ReadMemStats(&before)
	for v := range runs {
		draw(&apis[v])
	}
	gort.ReadMemStats(&after)
	objs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("first Rand() + 8 Int63: %.2f objects, %.1f B per vertex (sink %d)", objs, bytes, sink)
	if objs > 3 || bytes > 256 {
		t.Errorf("first Rand() + 8 Int63 allocate %.2f objects and %.1f B per vertex, want <= 3 and <= 256", objs, bytes)
	}
}
