package graph

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// csrDigest is the FNV-1a/64 checksum of the given int32 arrays, each
// preceded by its length, in little-endian bytes.
func csrDigest(arrays ...[]int32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	word := func(x int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		h.Write(buf[:])
	}
	for _, a := range arrays {
		word(int32(len(a)))
		for _, x := range a {
			word(x)
		}
	}
	return h.Sum64()
}

// goldenCells are the (n, a, seed) triples TestFamilyCSRGolden builds every
// family at; a family whose generator rejects a triple is skipped there.
var goldenCells = []struct {
	n, a int
	seed int64
}{
	{1, 1, 1}, {5, 1, 2}, {300, 3, 7}, {777, 5, 4}, {1024, 2, 9},
}

// TestFamilyCSRGolden pins the CSR arrays of every family at a few
// (n, a, seed) triples, and the RCM order, the Relabel view and the
// Permute output at two of them. The arrays of a generated graph are what
// every Result is computed on, so a change to the builder, a generator or
// the relabeling that moves a single entry fails here before it shows up
// as a drifted Result elsewhere.
func TestFamilyCSRGolden(t *testing.T) {
	// family/n/a/seed -> digest of Off, Adj, Rev.
	wantCSR := map[string]uint64{
		"forests/1/1/1":         12889146834055461591,
		"path/1/1/1":            12889146834055461591,
		"star/1/1/1":            12889146834055461591,
		"starforest/1/1/1":      12889146834055461591,
		"bintree/1/1/1":         12889146834055461591,
		"tree/1/1/1":            12889146834055461591,
		"grid/1/1/1":            15452455015373296648,
		"trigrid/1/1/1":         494887202683931209,
		"gnm/1/1/1":             12889146834055461591,
		"clique/1/1/1":          12889146834055461591,
		"hypercube/1/1/1":       15483277487685399093,
		"caterpillar/1/1/1":     12889146834055461591,
		"karytree/1/1/1":        12889146834055461591,
		"forests/5/1/2":         14500877527088514541,
		"ring/5/1/2":            15095855515792006640,
		"ringshuffled/5/1/2":    18049533012403322768,
		"path/5/1/2":            7226450786796900127,
		"star/5/1/2":            15445108499427104479,
		"starforest/5/1/2":      15445108499427104479,
		"bintree/5/1/2":         12738570123293927449,
		"tree/5/1/2":            15445108499427104479,
		"grid/5/1/2":            15452455015373296648,
		"trigrid/5/1/2":         494887202683931209,
		"gnm/5/1/2":             5325799129713292672,
		"clique/5/1/2":          17337318177410138487,
		"cliqueforest/5/1/2":    4258744351740009724,
		"hypercube/5/1/2":       16314300159087596028,
		"caterpillar/5/1/2":     10574974934518531433,
		"karytree/5/1/2":        12738570123293927449,
		"forests/300/3/7":       15601843978718934199,
		"ring/300/3/7":          8795548607968698053,
		"ringshuffled/300/3/7":  6401051343756891981,
		"path/300/3/7":          10150009758762115003,
		"star/300/3/7":          12740314108181474687,
		"starforest/300/3/7":    7640061871230310011,
		"bintree/300/3/7":       16935400079781684756,
		"tree/300/3/7":          9468904021000239937,
		"grid/300/3/7":          3224174022001271846,
		"trigrid/300/3/7":       11461126469755020531,
		"gnm/300/3/7":           12103444924913311840,
		"clique/300/3/7":        8723368359981538653,
		"cliqueforest/300/3/7":  11789634893807898420,
		"hypercube/300/3/7":     16656294340258884084,
		"caterpillar/300/3/7":   150189949393496056,
		"karytree/300/3/7":      17166747571785836961,
		"forests/777/5/4":       8970126281910771599,
		"ring/777/5/4":          586720241707039697,
		"ringshuffled/777/5/4":  6998812203158734893,
		"path/777/5/4":          9512188749284831669,
		"star/777/5/4":          1217270596809451521,
		"starforest/777/5/4":    12328479580199573145,
		"bintree/777/5/4":       3439232789503106287,
		"tree/777/5/4":          14234307627125851024,
		"grid/777/5/4":          16467769788812750249,
		"trigrid/777/5/4":       10431365780385924018,
		"gnm/777/5/4":           13388733030360927,
		"clique/777/5/4":        9383483491329086130,
		"cliqueforest/777/5/4":  14474742738939506318,
		"hypercube/777/5/4":     18289482205398359064,
		"caterpillar/777/5/4":   2354894918128213799,
		"karytree/777/5/4":      8475094646681064248,
		"forests/1024/2/9":      5849484505836445791,
		"ring/1024/2/9":         9808947598751023284,
		"ringshuffled/1024/2/9": 11697805309145756328,
		"path/1024/2/9":         7535912757866170046,
		"star/1024/2/9":         2841995525582305413,
		"starforest/1024/2/9":   14118895847409057705,
		"bintree/1024/2/9":      14845492535520287560,
		"tree/1024/2/9":         18254184985620172189,
		"grid/1024/2/9":         17444375071128640428,
		"trigrid/1024/2/9":      7846237773554769493,
		"gnm/1024/2/9":          4520368780787754216,
		"clique/1024/2/9":       4384561889352508408,
		"cliqueforest/1024/2/9": 18225211332170809749,
		"hypercube/1024/2/9":    18289482205398359064,
		"caterpillar/1024/2/9":  7131838004260778376,
		"karytree/1024/2/9":     14845492535520287560,
	}
	// family/n/a/seed -> {RCMOrder; view Off, Adj, Rev, AdjOrig, SlotOrig;
	// Permute Off, Adj, Rev}.
	wantRelabel := map[string][3]uint64{
		"forests/5/1/2":        {13317868147579501780, 4947132149408274361, 11112675791261075775},
		"ring/5/1/2":           {9162926638519837108, 6599975440445350417, 12056332297445037456},
		"ringshuffled/5/1/2":   {15203239866242768916, 10108282930015432369, 12056332297445037456},
		"path/5/1/2":           {3222136706870017956, 14485286724815992363, 7226450786796900127},
		"star/5/1/2":           {12373480839532875060, 12006490530740165183, 2449415415452571179},
		"starforest/5/1/2":     {12373480839532875060, 12006490530740165183, 2449415415452571179},
		"bintree/5/1/2":        {72135505282468180, 1078907038886061145, 4476287974866692589},
		"tree/5/1/2":           {12373480839532875060, 12006490530740165183, 2449415415452571179},
		"grid/5/1/2":           {16808807120791475953, 15985836570111656520, 15452455015373296648},
		"trigrid/5/1/2":        {14123103902465419505, 8551100568117582613, 7744911864479993111},
		"gnm/5/1/2":            {8273300968644474932, 13108115380058900438, 6983093786456486758},
		"clique/5/1/2":         {3222136706870017956, 3305802879143924471, 17337318177410138487},
		"cliqueforest/5/1/2":   {6034021147596522148, 11299567532779231151, 3094141831070298618},
		"hypercube/5/1/2":      {14507662436231258829, 925897257755234300, 9764832639843926716},
		"caterpillar/5/1/2":    {15938261872402176276, 8536662421196698507, 11112675791261075775},
		"karytree/5/1/2":       {72135505282468180, 1078907038886061145, 4476287974866692589},
		"forests/777/5/4":      {12949570044892092324, 8213252943715531022, 10384412355961456801},
		"ring/777/5/4":         {7536155694455778540, 9175093257233293296, 6007155212991682605},
		"ringshuffled/777/5/4": {3532650933994227576, 7733522690908401280, 6007155212991682605},
		"path/777/5/4":         {14143848886400485764, 8465295781898279728, 9512188749284831669},
		"star/777/5/4":         {4848448945353791252, 6706061431072372319, 566831654035976578},
		"starforest/777/5/4":   {4848448945353791252, 518308133251323527, 6506025096025664885},
		"bintree/777/5/4":      {4104710208396013884, 1711885132858215815, 13290142671863381082},
		"tree/777/5/4":         {15720590033605697780, 17079673121374310173, 1960460228222479735},
		"grid/777/5/4":         {2223760008644849152, 16451938572181061605, 17462291747820034053},
		"trigrid/777/5/4":      {6357474292169169624, 4771578804340706501, 5480408497760672835},
		"gnm/777/5/4":          {11244215317071196100, 16338979412086047421, 4666061549156923071},
		"clique/777/5/4":       {14143848886400485764, 14240957158713520270, 9383483491329086130},
		"cliqueforest/777/5/4": {11428145459180487616, 1470292880039708073, 2879704175243223118},
		"hypercube/777/5/4":    {4190406071651223865, 9540782511894678688, 4905524004867254892},
		"caterpillar/777/5/4":  {8662395791459592320, 16269033665555331496, 17806178699603582089},
		"karytree/777/5/4":     {17146408399407908924, 11015387556177706310, 1633040174869627559},
	}

	gotCSR := map[string]uint64{}
	gotRelabel := map[string][3]uint64{}
	for _, c := range goldenCells {
		for _, fam := range Families {
			g, err := MakeFamily(fam, c.n, c.a, c.seed)
			if err != nil {
				continue
			}
			key := fmt.Sprintf("%s/%d/%d/%d", fam, c.n, c.a, c.seed)
			gotCSR[key] = csrDigest(g.Off, g.Adj, g.Rev)
			if c.n != 5 && c.n != 777 {
				continue
			}
			order := RCMOrder(g)
			v := Relabel(g)
			p := Permute(g, order)
			gotRelabel[key] = [3]uint64{
				csrDigest(order),
				csrDigest(v.Off, v.Adj, v.Rev, v.Perm.AdjOrig, v.Perm.SlotOrig),
				csrDigest(p.Off, p.Adj, p.Rev),
			}
		}
	}
	checkGolden(t, "CSR", wantCSR, gotCSR)
	checkGolden(t, "relabel", wantRelabel, gotRelabel)
}

func checkGolden[V comparable](t *testing.T, what string, want, got map[string]V) {
	t.Helper()
	for _, k := range sortedKeys(got) {
		if w, ok := want[k]; !ok || w != got[k] {
			t.Errorf("%s %s: digest %v, want %v (present %v)", what, k, got[k], w, ok)
		}
	}
	for _, k := range sortedKeys(want) {
		if _, ok := got[k]; !ok {
			t.Errorf("%s %s: pinned but not built", what, k)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// referenceBuild is the comparison-sort Build that FuzzBuild holds the
// builder to: sort the edge list by (U,V), drop duplicates, then fill
// Adj and Rev in that order.
func referenceBuild(n int, in []Edge) *Graph {
	edges := slices.Clone(in)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	uniq := edges[:0]
	for i, e := range edges {
		if i == 0 || e != edges[i-1] {
			uniq = append(uniq, e)
		}
	}
	g := &Graph{n: n}
	g.Off = make([]int32, n+1)
	for _, e := range uniq {
		g.Off[e.U+1]++
		g.Off[e.V+1]++
	}
	for i := 0; i < n; i++ {
		g.Off[i+1] += g.Off[i]
	}
	g.Adj = make([]int32, 2*len(uniq))
	g.Rev = make([]int32, 2*len(uniq))
	cursor := slices.Clone(g.Off[:n])
	for _, e := range uniq {
		pu, pv := cursor[e.U], cursor[e.V]
		g.Adj[pu], g.Adj[pv] = e.V, e.U
		g.Rev[pu], g.Rev[pv] = pv, pu
		cursor[e.U]++
		cursor[e.V]++
	}
	return g
}

// FuzzBuild holds Build to referenceBuild on random multigraph edge lists
// with duplicates and both orientations of an edge, fed as drawn (a random
// order), in (U,V) order (the order half the generators produce), or in
// (U,V) order but for one transposed pair.
func FuzzBuild(f *testing.F) {
	f.Add(uint16(1), uint8(0), int64(0), []byte{})
	f.Add(uint16(2), uint8(0), int64(1), []byte{0, 1, 1, 0, 0, 1})
	f.Add(uint16(5), uint8(1), int64(2), []byte{4, 0, 3, 1, 0, 4, 2, 3, 2, 3})
	f.Add(uint16(9), uint8(2), int64(3), []byte{8, 7, 6, 5, 4, 3, 2, 1, 0, 8, 1, 7})
	f.Add(uint16(300), uint8(0), int64(4), make([]byte, 64))

	f.Fuzz(func(t *testing.T, nRaw uint16, mode uint8, seed int64, data []byte) {
		n := 1 + int(nRaw)%2048
		// Two bytes per endpoint, so n past 256 is reachable.
		var edges []Edge
		for i := 0; i+3 < len(data); i += 4 {
			u := int(binary.LittleEndian.Uint16(data[i:])) % n
			v := int(binary.LittleEndian.Uint16(data[i+2:])) % n
			if u == v {
				continue
			}
			edges = append(edges, Edge{int32(u), int32(v)})
		}
		norm := make([]Edge, len(edges))
		for i, e := range edges {
			norm[i] = minMax(e)
		}
		if mode%3 != 0 {
			// (U,V) order, each edge keeping the orientation it was drawn in.
			slices.SortFunc(edges, func(a, b Edge) int { return cmpEdge(minMax(a), minMax(b)) })
		}
		if mode%3 == 2 && len(edges) > 1 {
			// One transposed pair: sorted but for one spot.
			rng := rand.New(rand.NewSource(seed))
			i, j := rng.Intn(len(edges)), rng.Intn(len(edges))
			edges[i], edges[j] = edges[j], edges[i]
		}
		b := NewBuilder(n)
		for _, e := range edges {
			b.AddEdge(int(e.U), int(e.V))
		}
		got := b.Build()
		want := referenceBuild(n, norm)
		if got.N() != n {
			t.Fatalf("N = %d, want %d", got.N(), n)
		}
		for _, a := range []struct {
			name      string
			got, want []int32
		}{{"Off", got.Off, want.Off}, {"Adj", got.Adj, want.Adj}, {"Rev", got.Rev, want.Rev}} {
			if !slices.Equal(a.got, a.want) {
				t.Fatalf("n=%d mode=%d, %d edges: %s differs from the reference\n got %v\nwant %v",
					n, mode%3, len(edges), a.name, a.got, a.want)
			}
		}
		if b.NumEdges() != want.M() {
			t.Fatalf("NumEdges after Build = %d, want %d", b.NumEdges(), want.M())
		}
	})
}

func minMax(e Edge) Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

func cmpEdge(a, b Edge) int {
	if c := cmp.Compare(a.U, b.U); c != 0 {
		return c
	}
	return cmp.Compare(a.V, b.V)
}

// BenchmarkFamilyBuild times MakeFamily, generator and Build together, for
// every family at n=2·10⁵ (a=3, seed 1); clique, whose edge count is
// quadratic, at n=800.
func BenchmarkFamilyBuild(b *testing.B) {
	for _, fam := range Families {
		n := 200000
		if fam == "clique" {
			n = 800
		}
		b.Run(fam, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MakeFamily(fam, n, 3, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestGraphInputAllocs is the allocation budget of graph input: a warm
// generator run (the edge list reserved once, Build's passes allocating
// only the CSR arrays and their counting array), the RCM view and the
// persistable permutation (no allocation per vertex). Each bound sits
// about 20% above the measured count. With a comparison sort in Build,
// in each RCM frontier and in each permuted adjacency list the three
// allocated 31, 4,121 and 8,203 objects.
func TestGraphInputAllocs(t *testing.T) {
	ring := RingShuffled(4096, 1)
	forest := ForestUnion(4096, 3, 1)
	order := RCMOrder(forest)
	cases := []struct {
		name  string
		run   func()
		bound float64
	}{
		{"ForestUnion(4096,3,1)", func() { ForestUnion(4096, 3, 1) }, 11},        // 9
		{"Relabel(RingShuffled(4096,1))", func() { Relabel(ring) }, 13},          // 11
		{"Permute(ForestUnion(4096,3,1))", func() { Permute(forest, order) }, 9}, // 7
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(20, c.run); got > c.bound {
			t.Errorf("%s: %.0f allocations, budget %.0f", c.name, got, c.bound)
		} else {
			t.Logf("%s: %.0f allocations (budget %.0f)", c.name, got, c.bound)
		}
	}
}
