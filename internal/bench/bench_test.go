package bench

import (
	"fmt"
	"strings"
	"testing"

	"op2ca/internal/cluster"
	"op2ca/internal/leakcheck"
	"op2ca/internal/runspec"
)

// tiny is a configuration small enough for unit tests while keeping
// partitions at >= ~1000 nodes per rank (the paper's strong-scaling
// regime; smaller partitions make 2-layer halos engulf whole neighbour
// partitions and distort the computation/communication balance).
func tiny() Config {
	return Config{Nodes8M: 16000, Nodes24M: 48000, RankScale: 0.004, Iters: 2, Parallel: true}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	s := tab.String()
	for _, want := range []string{"== demo ==", "333", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1,5", `say "hi"`}, {"2", "3"}},
	}
	got := tab.CSV()
	want := "a,b\n\"1,5\",\"say \"\"hi\"\"\"\n2,3\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestRanksFor(t *testing.T) {
	c := Default()
	if r := c.ranksFor(1, 128); r < 2 {
		t.Errorf("ranksFor(1) = %d, want >= 2", r)
	}
	if a, b := c.ranksFor(4, 128), c.ranksFor(64, 128); b <= a {
		t.Errorf("ranks must grow with node count: %d vs %d", a, b)
	}
	if gpuRanksFor(1) != 4 || gpuRanksFor(16) != 64 || gpuRanksFor(32) != 64 {
		t.Error("gpuRanksFor wrong")
	}
}

func TestRunMGPointShape(t *testing.T) {
	c := tiny()
	pt := c.runMGPoint(c.Nodes8M, 16, 4, archer())
	if pt.op2Time <= 0 || pt.caTime <= 0 {
		t.Fatalf("times not positive: %+v", pt)
	}
	if pt.op2Comm <= 0 || pt.caComm <= 0 {
		t.Fatalf("communication not measured: %+v", pt)
	}
	if pt.caHalo <= pt.op2Halo {
		t.Errorf("CA must do more redundant halo work: %g vs %g", pt.caHalo, pt.op2Halo)
	}
	if pt.caCore > pt.op2Core {
		t.Errorf("CA core cannot exceed OP2 core: %g vs %g", pt.caCore, pt.op2Core)
	}
}

// TestMGCAVolumeConstantInLoops is the headline Table 2 shape: OP2 per-rank
// communication grows with the loop count, the CA grouped volume does not.
func TestMGCAVolumeConstantInLoops(t *testing.T) {
	c := tiny()
	p2 := c.runMGPoint(c.Nodes8M, 16, 1, archer())
	p32 := c.runMGPoint(c.Nodes8M, 16, 16, archer())
	// With 2 dats exchanged once at 2 loops and one dat re-exchanged per
	// pair at 32 loops the growth is ~(16+1)/2 = 8.5x; allow headroom for
	// partition-shape variation.
	if p32.op2Comm < 6*p2.op2Comm {
		t.Errorf("OP2 comm should grow strongly from 2 to 32 loops: %g -> %g", p2.op2Comm, p32.op2Comm)
	}
	ratio := p32.caComm / p2.caComm
	if ratio > 1.5 {
		t.Errorf("CA grouped volume should stay ~constant: %g -> %g", p2.caComm, p32.caComm)
	}
}

// TestMGGainGrowsWithLoops: the Figure 10/11 shape at a fixed node count.
func TestMGGainGrowsWithLoops(t *testing.T) {
	c := tiny()
	g2 := func(nchains int) float64 {
		pt := c.runMGPoint(c.Nodes8M, 64, nchains, archer())
		return gain(pt.op2Time, pt.caTime)
	}
	lo, hi := g2(1), g2(16)
	if hi <= lo {
		t.Errorf("CA gain should grow with loop count: %g%% (2 loops) vs %g%% (32 loops)", lo, hi)
	}
	if hi <= 0 {
		t.Errorf("32-loop chain at high node count should profit: %g%%", hi)
	}
}

func TestRunHydraPoint(t *testing.T) {
	c := tiny()
	pt := c.runHydraPoint(c.Nodes8M, 16, archer())
	for _, chain := range []string{"weight", "period", "gradl", "vflux", "iflux", "jacob"} {
		o, a := pt.op2[chain], pt.cab[chain]
		if o.Time <= 0 || a.Time <= 0 {
			t.Errorf("%s: times %g / %g", chain, o.Time, a.Time)
		}
		if o.Execs == 0 || a.Execs == 0 {
			t.Errorf("%s: not executed", chain)
		}
	}
	// The period chain has the paper's highest communication reduction.
	o, a := pt.op2["period"], pt.cab["period"]
	if a.Comm >= o.Comm {
		t.Errorf("period: CA comm %g should be below OP2 comm %g", a.Comm, o.Comm)
	}
	// gradl increases communication under CA (the paper's negative case).
	o, a = pt.op2["gradl"], pt.cab["gradl"]
	if a.Comm <= o.Comm {
		t.Errorf("gradl: CA comm %g should exceed OP2 comm %g (deeper halos)", a.Comm, o.Comm)
	}
}

func TestTable3and4Published(t *testing.T) {
	tab := Table3and4(tiny())
	// Spot-check the published extensions appear for key loops.
	find := func(chain, loop string) []string {
		for _, r := range tab.Rows {
			if r[0] == chain && r[1] == loop {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", chain, loop)
		return nil
	}
	if r := find("gradl", "edgecon"); r[4] != "2" {
		t.Errorf("gradl/edgecon configured HE = %s, want 2", r[4])
	}
	if r := find("vflux", "vflux_edge"); r[4] != "1" {
		t.Errorf("vflux/vflux_edge configured HE = %s, want 1", r[4])
	}
	if r := find("weight", "centreline"); r[4] != "2" {
		t.Errorf("weight/centreline configured HE = %s, want 2", r[4])
	}
	if r := find("period", "limxp"); r[3] != "2" {
		t.Errorf("period/limxp Algorithm 3 HE = %s, want 2", r[3])
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	for _, name := range ExperimentOrder() {
		if exps[name] == nil {
			t.Errorf("experiment %s not registered", name)
		}
	}
	if len(exps) != len(ExperimentOrder()) {
		t.Error("registry and order disagree")
	}
}

// TestBenchPointAgreesWithRun puts the harness on the entry-point oracle: a
// paper point's backend is the run description its label spells out, with
// one warm-up iteration — so what Observe sees equals what the driver
// behind op2ca-run, RunDirect and the job service executes for that Spec.
func TestBenchPointAgreesWithRun(t *testing.T) {
	defer leakcheck.Check(t)()
	c := Config{Nodes8M: 4000, Nodes24M: 12000, RankScale: 0.004, Iters: 2, Parallel: true}
	type result struct {
		checksum string
		clock    float64
	}
	got := map[string]result{}
	c.Observe = func(label string, b *cluster.Backend) { got[label] = result{b.ChecksumDats(), b.MaxClock()} }
	const paperNodes, nchains = 16, 4
	ranks := c.ranksFor(paperNodes, archer().RanksPerNode)
	c.runMGPoint(c.Nodes8M, paperNodes, nchains, archer())
	c.runHydraPoint(c.Nodes8M, paperNodes, archer())
	if len(got) != 4 {
		t.Fatalf("observed %d runs, want 4", len(got))
	}
	for _, backend := range []string{"op2", "ca"} {
		for label, spec := range map[string]runspec.Spec{
			fmt.Sprintf("mgcfd %s mesh=%d paper-nodes=%d loops=%d ranks=%d", backend, c.Nodes8M, paperNodes, 2*nchains, ranks): {
				App: "mgcfd", MeshNodes: c.Nodes8M, Levels: 3, NChains: nchains},
			fmt.Sprintf("hydra %s mesh=%d paper-nodes=%d ranks=%d (ARCHER2)", backend, c.Nodes8M, paperNodes, ranks): {
				App: "hydra", MeshNodes: c.Nodes8M},
		} {
			spec.Ranks, spec.Backend, spec.Iters, spec.Machine = ranks, backend, c.Iters+1, "archer2"
			r, err := spec.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			p, err := r.NewProblem()
			if err != nil {
				t.Fatal(err)
			}
			a, err := r.Execute(p, nil, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Not through Outcome: its residual is a loop with a reduction
			// and advances the clock.
			want := result{a.CB.ChecksumDats(), a.CB.MaxClock()}
			a.Close()
			if g, ok := got[label]; !ok || g != want {
				t.Errorf("%s: harness observed %+v (%t), the run it describes gives %+v", label, g, ok, want)
			}
		}
	}
}

// TestOverlapStudy: the overlapped executor is bitwise identical to the
// bulk-synchronous exchange, hides a positive amount of in-flight message
// time, and lands a lower makespan on the comm-bound study.
func TestOverlapStudy(t *testing.T) {
	defer leakcheck.Check(t)()
	tab := OverlapStudy(tiny())
	if len(tab.Rows) != 2 || tab.Rows[0][0] != "bulk" || tab.Rows[1][0] != "overlap" {
		t.Fatalf("rows %v", tab.Rows)
	}
	cell := func(row, col int) float64 {
		v, ok := numericCell(tab.Rows[row][col])
		if !ok {
			t.Fatalf("row %d col %d: %q is not a number", row, col, tab.Rows[row][col])
		}
		return v
	}
	const tCol, hiddenCol = 1, 3
	if !strings.Contains(tab.Notes[0], "dat checksums equal") || cell(1, hiddenCol) <= 0 || cell(1, tCol) >= cell(0, tCol) {
		t.Errorf("overlap table %v, notes %q: want equal checksums, hidden > 0, overlap < bulk", tab.Rows, tab.Notes)
	}
}
