package chaincfg

import (
	"strings"
	"testing"
)

const sample = `
# Hydra loop-chains (Tables 3 and 4)
chain weight maxhe=2
  loop sumbwts he=2
  loop periodsym he=1
  loop centreline he=2
  loop edgelength he=2
  loop periodicity he=1
chain period maxhe=2
chain vflux maxhe=1
chain gradl disable
`

func TestParse(t *testing.T) {
	cfg, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Order) != 4 {
		t.Fatalf("parsed %d chains, want 4", len(cfg.Order))
	}
	w := cfg.Get("weight")
	if w == nil || w.MaxHE != 2 || len(w.Loops) != 5 || w.Disabled {
		t.Fatalf("weight = %+v", w)
	}
	if w.Loops[2].Name != "centreline" || w.Loops[2].HE != 2 {
		t.Errorf("weight loop 2 = %+v", w.Loops[2])
	}
	if g := cfg.Get("gradl"); g == nil || !g.Disabled {
		t.Error("gradl should be disabled")
	}
	if cfg.Get("nope") != nil {
		t.Error("unknown chain should be nil")
	}
	var nilCfg *Config
	if nilCfg.Get("x") != nil {
		t.Error("nil config Get should be nil")
	}
}

func TestHEOverrides(t *testing.T) {
	cfg, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	he, err := cfg.Get("weight").HEOverrides(5)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 1, 2, 2, 1}
	for i := range want {
		if he[i] != want[i] {
			t.Fatalf("weight overrides = %v, want %v", he, want)
		}
	}
	if _, err := cfg.Get("weight").HEOverrides(3); err == nil {
		t.Error("expected loop-count mismatch error")
	}
	// maxhe only: all loops capped.
	he, err = cfg.Get("period").HEOverrides(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range he {
		if v != 2 {
			t.Fatalf("period overrides = %v, want all 2", he)
		}
	}
	// No constraints at all: zeros.
	c := &Chain{Name: "free"}
	he, err = c.HEOverrides(2)
	if err != nil {
		t.Fatal(err)
	}
	if he[0] != 0 || he[1] != 0 {
		t.Fatalf("free overrides = %v, want zeros", he)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"chain",
		"loop x",
		"chain a\nchain a",
		"chain a maxhe=zero",
		"chain a maxhe=0",
		"chain a wat",
		"chain a\nloop",
		"chain a\nloop l he=-2",
		"chain a\nloop l wat=1",
		"banana split",
	}
	for _, s := range bad {
		if _, err := ParseString(s); err == nil {
			t.Errorf("ParseString(%q) should fail", s)
		}
	}
}

// TestParseDuplicates: duplicate chain names and duplicate loop names
// within a chain are configuration mistakes (a second entry would silently
// shadow the first's overrides) and must be rejected at parse time.
func TestParseDuplicates(t *testing.T) {
	if _, err := ParseString("chain a\nchain b\nchain a\n"); err == nil ||
		!strings.Contains(err.Error(), `duplicate chain "a"`) {
		t.Errorf("duplicate chain: err = %v", err)
	}
	if _, err := ParseString("chain a\nloop x he=1\nloop y he=2\nloop x he=2\n"); err == nil ||
		!strings.Contains(err.Error(), `duplicate loop "x"`) {
		t.Errorf("duplicate loop: err = %v", err)
	}
	// The same loop name in different chains is fine.
	if _, err := ParseString("chain a\nloop x he=1\nchain b\nloop x he=2\n"); err != nil {
		t.Errorf("same loop name across chains rejected: %v", err)
	}
}

// TestParseAuto: the "auto" token opts a chain into the autotuner; it
// round-trips through String() and conflicts with "disable".
func TestParseAuto(t *testing.T) {
	cfg, err := ParseString("chain a auto\nloop x he=1\nchain b maxhe=2\n")
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Get("a").Auto || cfg.Get("b").Auto {
		t.Fatalf("auto flags wrong: a=%+v b=%+v", cfg.Get("a"), cfg.Get("b"))
	}
	again, err := ParseString(cfg.String())
	if err != nil {
		t.Fatalf("re-parsing String(): %v", err)
	}
	if !again.Get("a").Auto {
		t.Errorf("auto lost in round trip: %q", cfg.String())
	}
	if _, err := ParseString("chain a auto disable\n"); err == nil ||
		!strings.Contains(err.Error(), "cannot be both auto and disable") {
		t.Errorf("auto+disable: err = %v", err)
	}
	if _, err := ParseString("chain a disable auto\n"); err == nil {
		t.Error("disable+auto must also fail")
	}
}

func TestStringRoundtrip(t *testing.T) {
	cfg, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseString(cfg.String())
	if err != nil {
		t.Fatalf("re-parsing String() output: %v", err)
	}
	if len(again.Order) != len(cfg.Order) {
		t.Fatalf("round trip lost chains: %v vs %v", again.Order, cfg.Order)
	}
	for _, name := range cfg.Order {
		a, b := cfg.Chains[name], again.Chains[name]
		if a.MaxHE != b.MaxHE || a.Disabled != b.Disabled || len(a.Loops) != len(b.Loops) {
			t.Fatalf("chain %s changed: %+v vs %+v", name, a, b)
		}
		for i := range a.Loops {
			if a.Loops[i] != b.Loops[i] {
				t.Fatalf("chain %s loop %d changed", name, i)
			}
		}
	}
}

func TestParseComments(t *testing.T) {
	cfg, err := Parse(strings.NewReader("# only comments\n\n  \n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Chains) != 0 {
		t.Error("empty config should have no chains")
	}
}

// TestParseOverlap: the "overlap" token opts a chain into overlapped
// (pipelined) delivery and round-trips through String(). It composes with
// auto (the tuner then enumerates both delivery modes) but not disable.
func TestParseOverlap(t *testing.T) {
	cfg, err := ParseString("chain a overlap\nloop x he=1\nchain b auto overlap\nchain c maxhe=2\n")
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Get("a").Overlap || !cfg.Get("b").Overlap || cfg.Get("c").Overlap {
		t.Fatalf("overlap flags wrong: a=%+v b=%+v c=%+v", cfg.Get("a"), cfg.Get("b"), cfg.Get("c"))
	}
	if !cfg.Get("b").Auto {
		t.Error("auto must survive alongside overlap")
	}
	again, err := ParseString(cfg.String())
	if err != nil {
		t.Fatalf("re-parsing String(): %v", err)
	}
	if !again.Get("a").Overlap || !again.Get("b").Overlap || again.Get("c").Overlap {
		t.Errorf("overlap lost in round trip: %q", cfg.String())
	}
}
