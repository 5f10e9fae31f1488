package faults

import (
	"math"
	"strings"
	"testing"
)

func TestParseFullSpec(t *testing.T) {
	p, err := Parse("drop=0.01,corrupt=0.002,delay=5x@0.01,straggler=rank3:10x,seed=42,maxretries=6")
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop != 0.01 || p.Corrupt != 0.002 {
		t.Errorf("drop/corrupt = %g/%g", p.Drop, p.Corrupt)
	}
	if p.DelayFactor != 5 || p.DelayProb != 0.01 {
		t.Errorf("delay = %gx@%g", p.DelayFactor, p.DelayProb)
	}
	if p.Stragglers[3] != 10 {
		t.Errorf("straggler = %v", p.Stragglers)
	}
	if p.Seed != 42 || p.MaxRetries != 6 {
		t.Errorf("seed/maxretries = %d/%d", p.Seed, p.MaxRetries)
	}
	if !p.Enabled() {
		t.Error("full spec should be enabled")
	}
}

func TestParseEmptyAndDefaults(t *testing.T) {
	p, err := Parse("")
	if err != nil {
		t.Fatal(err)
	}
	if p.Enabled() {
		t.Error("empty spec must inject nothing")
	}
	if p.Seed != 1 {
		t.Errorf("default seed = %d, want 1", p.Seed)
	}
	v := p.Judge(Attempt{Exchange: 7, Msg: 3, Try: 0, From: 1, To: 2})
	if v.Failed() || v.Delay != 1 || v.Slow != 1 {
		t.Errorf("clean plan returned %+v", v)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"drop=1.5",             // probability out of range
		"drop=-0.1",            // negative probability
		"drop=NaN",             // compares false against both bounds
		"corrupt=abc",          // not a number
		"delay=5x",             // missing probability
		"delay=0.5x@0.1",       // factor < 1
		"delay=NaNx@0.1",       // not a factor at all
		"straggler=rank3:Infx", // a rank that never finishes
		"delay=5@0.1",          // missing x suffix
		"straggler=3:10x",      // missing rank prefix
		"straggler=rank3:0x",   // factor < 1
		"straggler=rank-1:2x",  // negative rank
		"seed=abc",
		"maxretries=0",
		"maxretries=-3", // negative budget
		"bogus=1",
		"dangling",
		"drop=0.1,drop=0.2",                     // duplicate scalar clause
		"corrupt=0.1,corrupt=0.1",               // duplicate, even with equal values
		"delay=2x@0.1,delay=3x@0.2",             // duplicate delay
		"seed=1,seed=2",                         // duplicate seed
		"maxretries=3,maxretries=4",             // duplicate retry budget
		"straggler=rank1:2x,straggler=rank1:3x", // duplicate straggler rank
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted an invalid spec", spec)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	specs := []string{
		"drop=0.01,corrupt=0.002,delay=5x@0.01,straggler=rank3:10x,seed=42,maxretries=6",
		"drop=0.05,seed=1",
		"straggler=rank0:2x,straggler=rank5:3x,seed=9",
	}
	for _, spec := range specs {
		p := MustParse(spec)
		q, err := Parse(p.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", p.String(), err)
		}
		if p.String() != q.String() {
			t.Errorf("round trip: %q -> %q", p.String(), q.String())
		}
	}
}

// TestJudgeDeterministic: identical attempts always receive identical
// verdicts — the property the simulator's reproducibility rests on.
func TestJudgeDeterministic(t *testing.T) {
	p := MustParse("drop=0.3,corrupt=0.1,delay=4x@0.2,straggler=rank1:3x,seed=7")
	for i := 0; i < 1000; i++ {
		a := Attempt{Exchange: uint64(i % 17), Msg: i % 29, Try: i % 5,
			From: int32(i % 3), To: int32((i + 1) % 3)}
		v1, v2 := p.Judge(a), p.Judge(a)
		if v1 != v2 {
			t.Fatalf("attempt %+v: verdicts differ: %+v vs %+v", a, v1, v2)
		}
	}
}

// TestJudgeRates: observed drop frequency tracks the configured probability
// over many independent attempts.
func TestJudgeRates(t *testing.T) {
	p := MustParse("drop=0.2,seed=3")
	n, drops := 20000, 0
	for i := 0; i < n; i++ {
		if p.Judge(Attempt{Exchange: uint64(i), Msg: 0, Try: 0, From: 0, To: 1}).Drop {
			drops++
		}
	}
	rate := float64(drops) / float64(n)
	if math.Abs(rate-0.2) > 0.02 {
		t.Errorf("observed drop rate %.3f, want ~0.2", rate)
	}
}

// TestJudgeSeedIndependence: different seeds give different schedules;
// different retry numbers of the same message re-roll the dice.
func TestJudgeSeedIndependence(t *testing.T) {
	p1 := MustParse("drop=0.5,seed=1")
	p2 := MustParse("drop=0.5,seed=2")
	same, retryVaries := 0, false
	for i := 0; i < 200; i++ {
		a := Attempt{Exchange: uint64(i), Msg: 1, Try: 0, From: 0, To: 1}
		if p1.Judge(a).Drop == p2.Judge(a).Drop {
			same++
		}
		b := a
		b.Try = 1
		if p1.Judge(a).Drop != p1.Judge(b).Drop {
			retryVaries = true
		}
	}
	if same == 200 {
		t.Error("seeds 1 and 2 produced identical drop schedules")
	}
	if !retryVaries {
		t.Error("retry attempts never re-rolled the drop decision")
	}
}

func TestStragglerAppliesToSenderOnly(t *testing.T) {
	p := MustParse("straggler=rank2:8x,seed=1")
	if v := p.Judge(Attempt{From: 2, To: 0}); v.Slow != 8 {
		t.Errorf("sender 2 slow = %g, want 8", v.Slow)
	}
	if v := p.Judge(Attempt{From: 0, To: 2}); v.Slow != 1 {
		t.Errorf("receiver-side attempt slowed: %g", v.Slow)
	}
}

func TestNilPlan(t *testing.T) {
	var p *Plan
	if p.Enabled() {
		t.Error("nil plan enabled")
	}
	if v := p.Judge(Attempt{}); v.Failed() || v.Delay != 1 || v.Slow != 1 {
		t.Errorf("nil plan verdict %+v", v)
	}
	if p.String() != "" {
		t.Errorf("nil plan String = %q", p.String())
	}
}

func TestParseRejectsMalformedClauses(t *testing.T) {
	if _, err := Parse("drop=0.1,,seed=2"); err != nil {
		t.Errorf("empty clauses should be skipped: %v", err)
	}
	_, err := Parse("drop")
	if err == nil || !strings.Contains(err.Error(), "key=value") {
		t.Errorf("want key=value error, got %v", err)
	}
}

func TestCrashParseAndString(t *testing.T) {
	p, err := Parse("crash=rank2@77,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	cs := p.CrashSchedule()
	if len(cs) != 1 || cs[0].Rank != 2 || cs[0].Exchange != 77 {
		t.Fatalf("CrashSchedule = %+v, want one clause rank 2 exchange 77", cs)
	}
	if p.Enabled() {
		t.Error("a crash-only plan injects no message faults; Enabled must stay false")
	}
	s := p.String()
	if !strings.Contains(s, "crash=rank2@77") {
		t.Errorf("String() = %q, missing crash clause", s)
	}
	back, err := Parse(s)
	if err != nil {
		t.Fatalf("String round trip: %v", err)
	}
	bc := back.CrashSchedule()
	if len(bc) != 1 || bc[0] != cs[0] || back.Seed != p.Seed {
		t.Errorf("round trip %q -> %+v seed %d, want %+v seed %d", s, bc, back.Seed, cs, p.Seed)
	}
}

func TestMultiCrashSchedule(t *testing.T) {
	p, err := Parse("crash=rank0@120,crash=rank2@400,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	want := []Crash{{Rank: 0, Exchange: 120}, {Rank: 2, Exchange: 400}}
	got := p.CrashSchedule()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("CrashSchedule = %+v, want %+v", got, want)
	}
	s := p.String()
	back, err := Parse(s)
	if err != nil {
		t.Fatalf("String round trip of %q: %v", s, err)
	}
	bc := back.CrashSchedule()
	if len(bc) != 2 || bc[0] != want[0] || bc[1] != want[1] {
		t.Errorf("round trip %q -> %+v, want %+v", s, bc, want)
	}
	if _, err := Parse("crash=rank0@120,crash=rank1@120"); err == nil {
		t.Error("duplicate crash exchanges accepted; only the first could ever fire")
	}
}

func TestCrashParseErrors(t *testing.T) {
	for _, bad := range []string{"crash=77", "crash=rank1", "crash=rank-1@5", "crash=rankx@5", "crash=rank1@", "crash=rank1@-2"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestCrashScheduleNilPlan(t *testing.T) {
	var p *Plan
	if p.CrashSchedule() != nil {
		t.Error("nil plan must report no crash schedule")
	}
}

func TestCrashErrorMessage(t *testing.T) {
	e := &CrashError{Rank: 3, Exchange: 9}
	if msg := e.Error(); !strings.Contains(msg, "3") || !strings.Contains(msg, "9") {
		t.Errorf("CrashError message %q should carry rank and exchange", msg)
	}
}
