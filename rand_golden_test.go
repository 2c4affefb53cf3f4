package vavg

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// TestRandomizedResultsGolden pins the Results of the randomized entries
// to constants. The cross-form, relabel and worker-invariance suites
// compare runs that all draw from the same API.Rand, so a per-vertex
// stream that drifted from math/rand's would pass every one of them; this
// test holds the stream itself fixed (DESIGN.md §1). The grid is forests
// (n=3000, a=3) and ringshuffled (n=3000) at run seeds 1–3, plus one
// RCM-relabeled run (streams keyed by original ID) and one crash+restart
// run (restarted vertices draw generation > 0 streams).
func TestRandomizedResultsGolden(t *testing.T) {
	type golden struct {
		worst, colors, size, restarts int
		roundSum, messages            int64
		digest                        uint64 // FNV-1a of ActivePerRound
	}
	// {worst, colors, size, restarts, roundSum, messages, digest}
	want := map[string]golden{
		"mis-luby/forests/1":             {8, -1, 970, 0, 10166, 41624, 14516219573016060471},
		"mis-luby/forests/2":             {8, -1, 987, 0, 10063, 41358, 9598419813303429589},
		"mis-luby/forests/3":             {8, -1, 951, 0, 10017, 41293, 8517341825942800407},
		"mis-luby/ringshuffled/1":        {6, -1, 1295, 0, 8533, 12828, 18123193876848986248},
		"mis-luby/ringshuffled/2":        {7, -1, 1300, 0, 8516, 12816, 4601347201635661613},
		"mis-luby/ringshuffled/3":        {7, -1, 1288, 0, 8552, 12840, 7879616744261866257},
		"deltaplus1-rand/forests/1":      {16, 17, -1, 0, 11063, 42598, 16096569665682241541},
		"deltaplus1-rand/forests/2":      {15, 17, -1, 0, 11151, 43174, 10510991292375380243},
		"deltaplus1-rand/forests/3":      {17, 17, -1, 0, 11063, 42357, 1675030961089473716},
		"deltaplus1-rand/ringshuffled/1": {16, 3, -1, 0, 11380, 14448, 16988780430927250749},
		"deltaplus1-rand/ringshuffled/2": {17, 3, -1, 0, 11246, 14308, 16739695285065489777},
		"deltaplus1-rand/ringshuffled/3": {17, 3, -1, 0, 11389, 14316, 17139828192000790350},
		"aloglog-rand/forests/1":         {19, 26, -1, 0, 16364, 58644, 44693367286296437},
		"aloglog-rand/forests/2":         {17, 26, -1, 0, 16272, 58104, 9005988930632109011},
		"aloglog-rand/forests/3":         {19, 26, -1, 0, 16432, 58239, 989139872162896671},
		"aloglog-rand/ringshuffled/1":    {16, 9, -1, 0, 15714, 18740, 6755557145605594258},
		"aloglog-rand/ringshuffled/2":    {17, 9, -1, 0, 15637, 18692, 16528998852152842519},
		"aloglog-rand/ringshuffled/3":    {19, 9, -1, 0, 15818, 18698, 6552102642792117967},
		"aloglog-rand/forests/1/rcm":     {19, 26, -1, 0, 16364, 58644, 44693367286296437},
		"mis-luby/forests/1/restart":     {11, -1, 1181, 253, 11507, 40893, 4296870053640635389},
	}

	type run struct {
		name, alg, family string
		p                 Params // p.Arboricity is also the generator's a
	}
	var runs []run
	for _, alg := range []string{"mis-luby", "deltaplus1-rand", "aloglog-rand"} {
		for _, fam := range []struct {
			name string
			a    int
		}{{"forests", 3}, {"ringshuffled", 2}} {
			for seed := int64(1); seed <= 3; seed++ {
				runs = append(runs, run{
					name: fmt.Sprintf("%s/%s/%d", alg, fam.name, seed),
					alg:  alg, family: fam.name,
					p: Params{Arboricity: fam.a, Seed: seed},
				})
			}
		}
	}
	runs = append(runs,
		run{name: "aloglog-rand/forests/1/rcm", alg: "aloglog-rand", family: "forests",
			p: Params{Arboricity: 3, Seed: 1, Relabel: "rcm"}},
		run{name: "mis-luby/forests/1/restart", alg: "mis-luby", family: "forests",
			p: Params{Arboricity: 3, Seed: 1, MaxRounds: 4096,
				Scenario: &Scenario{CrashFrac: 0.1, CrashRound: 3, RestartAfter: 4, Seed: 5}}},
	)

	graphs := map[string]*Graph{}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			g := graphs[r.family]
			if g == nil {
				var err error
				if g, err = MakeFamily(r.family, 3000, r.p.Arboricity, 1); err != nil {
					t.Fatal(err)
				}
				graphs[r.family] = g
			}
			alg, err := ByName(r.alg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := alg.Run(g, r.p)
			if err != nil {
				t.Fatal(err)
			}
			if r.p.Scenario != nil && rep.Restarts == 0 {
				t.Fatal("restart scenario rebooted no vertex; it pins nothing about generation > 0 streams")
			}
			got := golden{
				worst: rep.WorstCase, colors: rep.Colors, size: rep.Size, restarts: rep.Restarts,
				roundSum: rep.RoundSum, messages: rep.Messages, digest: activeDigest(rep.ActivePerRound),
			}
			if w, ok := want[r.name]; !ok || got != w {
				t.Errorf("Result drifted from its pin:\n got  %q: {%d, %d, %d, %d, %d, %d, %d},\n want %+v",
					r.name, got.worst, got.colors, got.size, got.restarts, got.roundSum, got.messages, got.digest, w)
			}
		})
	}
}

// activeDigest is FNV-1a over the active-vertex curve, each entry as eight
// little-endian bytes (the digest bench/ reports).
func activeDigest(xs []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	return h.Sum64()
}
