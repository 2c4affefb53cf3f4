package scenario

import (
	"reflect"
	"testing"

	"vavg/internal/graph"
)

func TestParseCompact(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"", Spec{}},
		{"drop=0.25", Spec{Drop: 0.25}},
		{"drop=0.25,crashfrac=0.1,crashround=5,restart=10,seed=7",
			Spec{Drop: 0.25, CrashFrac: 0.1, CrashRound: 5, RestartAfter: 10, Seed: 7}},
		{"crash=12@5,crash=40@5+10",
			Spec{Crashes: []Crash{{V: 12, Round: 5}, {V: 40, Round: 5, Restart: 15}}}},
		{"edge=+3-7@4,edge=-7-3@9",
			Spec{Edges: []EdgeEvent{
				{Round: 4, U: 3, V: 7, Insert: true},
				{Round: 9, U: 3, V: 7, Insert: false}, // endpoints normalized U < V
			}}},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(*got, c.want) {
			t.Errorf("Parse(%q) = %+v, want %+v", c.in, *got, c.want)
		}
	}
}

func TestParseJSONForm(t *testing.T) {
	got, err := Parse(`{"drop": 0.5, "crashes": [{"v": 3, "round": 4, "restart": 9}]}`)
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Drop: 0.5, Crashes: []Crash{{V: 3, Round: 4, Restart: 9}}}
	if !reflect.DeepEqual(*got, want) {
		t.Errorf("got %+v, want %+v", *got, want)
	}
	if _, err := Parse(`{"dorp": 0.5}`); err == nil {
		t.Error("unknown JSON field should be rejected")
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"drop=2",            // probability out of range
		"crashfrac=-0.1",    // negative probability
		"bogus=1",           // unknown key
		"drop",              // not key=value
		"crash=5",           // missing @round
		"crash=5@3+0",       // restart delay below 1
		"edge=3-7@4",        // missing +/- sign
		"edge=+3-3@4",       // self-loop
		"edge=+3-7@0",       // round below 1
		`{"drop": "x"}`,     // JSON type mismatch
		"crashround=-1",     // negative round
		"restart=-2",        // negative delay
		"crash=-1@5",        // negative vertex
		"edge=+3-7@-1",      // negative round
		"drop=0.1,drop=zzz", // unparsable float
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	specs := []*Spec{
		{},
		{Drop: 0.25, Seed: 9},
		{CrashFrac: 0.05, CrashRound: 3, RestartAfter: 6},
		{Drop: 0.1, Crashes: []Crash{{V: 2, Round: 4}, {V: 9, Round: 4, Restart: 12}},
			Edges: []EdgeEvent{{Round: 3, U: 1, V: 5, Insert: true}}},
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		got, err := Parse(s.String())
		if err != nil {
			t.Errorf("Parse(%q): %v", s.String(), err)
			continue
		}
		if !reflect.DeepEqual(got, s) {
			t.Errorf("round trip of %q: got %+v, want %+v", s.String(), got, s)
		}
	}
}

func TestCompile(t *testing.T) {
	// Faultless specs — including edge-only ones — compile to nil: the
	// engine keeps its literal fault-free hot path.
	for _, s := range []*Spec{
		{},
		{Seed: 9, CrashRound: 4, RestartAfter: 2},
		{Edges: []EdgeEvent{{Round: 2, U: 0, V: 1}}},
	} {
		adv, err := s.Compile(100, 1)
		if err != nil {
			t.Fatal(err)
		}
		if adv != nil {
			t.Errorf("%+v compiled to a non-nil adversary", s)
		}
	}

	// An explicit crash schedule lands on the named vertices with the
	// engine's clamps applied.
	s := &Spec{Crashes: []Crash{{V: 3, Round: 0}, {V: 7, Round: 6, Restart: 2}}}
	adv, err := s.Compile(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if adv.CrashAt[3] != 2 {
		t.Errorf("crash round 0 should clamp to 2, got %d", adv.CrashAt[3])
	}
	if adv.CrashAt[7] != 6 || adv.RestartAt[7] != 7 {
		t.Errorf("restart at/below crash should clamp to crash+1, got crash %d restart %d",
			adv.CrashAt[7], adv.RestartAt[7])
	}
	if _, err := (&Spec{Crashes: []Crash{{V: 12, Round: 3}}}).Compile(10, 1); err == nil {
		t.Error("crash vertex outside the graph should be rejected")
	}

	// The CrashFrac sample is deterministic in (run seed, scenario seed)
	// and changes with both.
	frac := &Spec{CrashFrac: 0.2, Seed: 5}
	a1, err := frac.Compile(500, 3)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := frac.Compile(500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1.CrashAt, a2.CrashAt) {
		t.Error("same seeds must sample the same crash set")
	}
	a3, err := frac.Compile(500, 4)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a1.CrashAt, a3.CrashAt) {
		t.Error("different run seeds should sample different crash sets")
	}
	crashed := 0
	for _, r := range a1.CrashAt {
		if r != 0 {
			crashed++
		}
	}
	if crashed < 50 || crashed > 150 {
		t.Errorf("CrashFrac 0.2 over 500 vertices sampled %d crashes", crashed)
	}
}

func TestEpochsAndApply(t *testing.T) {
	s := &Spec{Edges: []EdgeEvent{
		{Round: 5, U: 2, V: 3, Insert: true},
		{Round: 2, U: 0, V: 1, Insert: false},
		{Round: 5, U: 3, V: 4, Insert: false},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	eps, err := s.Epochs(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 2 || eps[0].Round != 2 || eps[1].Round != 5 {
		t.Fatalf("epochs = %+v, want rounds [2 5]", eps)
	}
	if !reflect.DeepEqual(eps[0].Affected, []int{0, 1}) ||
		!reflect.DeepEqual(eps[1].Affected, []int{2, 3, 4}) {
		t.Errorf("affected sets = %v / %v", eps[0].Affected, eps[1].Affected)
	}
	if _, err := (&Spec{Edges: []EdgeEvent{{Round: 2, U: 0, V: 99}}}).Epochs(10); err == nil {
		t.Error("edge endpoint outside the graph should be rejected")
	}

	g := graph.Ring(6) // edges {0,1} {1,2} ... {5,0}
	ng := Apply(g, []EdgeEvent{
		{U: 0, V: 1, Insert: false},
		{U: 2, V: 4, Insert: true},
		{U: 1, V: 2, Insert: true},  // already present: kept once
		{U: 3, V: 5, Insert: false}, // absent: ignored
	})
	if ng.N() != 6 || ng.M() != g.M() {
		t.Errorf("applied graph has n=%d m=%d, want n=6 m=%d", ng.N(), ng.M(), g.M())
	}
	if ng.HasEdge(0, 1) {
		t.Error("deleted edge {0,1} survived")
	}
	if !ng.HasEdge(2, 4) {
		t.Error("inserted edge {2,4} missing")
	}
	if !ng.HasEdge(1, 2) {
		t.Error("re-inserted existing edge {1,2} lost")
	}
	if ng.Name != g.Name || ng.ArborBound != g.ArborBound {
		t.Error("Apply must keep the graph's name and arboricity bound")
	}
}

func TestCloneIsolation(t *testing.T) {
	s := &Spec{Crashes: []Crash{{V: 1, Round: 0}}, Edges: []EdgeEvent{{Round: 2, U: 5, V: 3}}}
	c := s.Clone()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Validate canonicalized the clone (crash round clamp, endpoint swap);
	// the original must be untouched.
	if s.Crashes[0].Round != 0 || s.Edges[0].U != 5 {
		t.Error("Clone did not isolate the original spec from canonicalization")
	}
	if c.Crashes[0].Round != 2 || c.Edges[0].U != 3 {
		t.Error("Validate did not canonicalize the clone")
	}
}
