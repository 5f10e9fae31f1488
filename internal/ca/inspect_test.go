package ca

import (
	"strings"
	"testing"

	"op2ca/internal/core"
)

// chainFixture declares a small hydra-shaped program for inspector tests.
type chainFixture struct {
	p                        *core.Program
	nodes, edges, pedges     *core.Set
	bnd, cbnd                *core.Set
	e2n, p2n, b2n, cb2n      *core.Map
	qo, vol, qp, ql, jac, fl *core.Dat
	k                        *core.Kernel
}

func newFixture() *chainFixture {
	f := &chainFixture{p: core.NewProgram()}
	f.nodes = f.p.DeclSet(6, "nodes")
	f.edges = f.p.DeclSet(5, "edges")
	f.pedges = f.p.DeclSet(2, "pedges")
	f.bnd = f.p.DeclSet(2, "bnd")
	f.cbnd = f.p.DeclSet(2, "cbnd")
	f.e2n = f.p.DeclMap(f.edges, f.nodes, 2, []int32{0, 1, 1, 2, 2, 3, 3, 4, 4, 5}, "e2n")
	f.p2n = f.p.DeclMap(f.pedges, f.nodes, 2, []int32{0, 5, 1, 4}, "p2n")
	f.b2n = f.p.DeclMap(f.bnd, f.nodes, 1, []int32{0, 5}, "b2n")
	f.cb2n = f.p.DeclMap(f.cbnd, f.nodes, 1, []int32{2, 3}, "cb2n")
	f.qo = f.p.DeclDat(f.nodes, 1, nil, "qo")
	f.vol = f.p.DeclDat(f.nodes, 1, nil, "vol")
	f.qp = f.p.DeclDat(f.nodes, 1, nil, "qp")
	f.ql = f.p.DeclDat(f.nodes, 1, nil, "ql")
	f.jac = f.p.DeclDat(f.nodes, 1, nil, "jac")
	f.fl = f.p.DeclDat(f.nodes, 1, nil, "flux")
	f.k = &core.Kernel{Name: "k", Fn: func(a [][]float64) {}}
	return f
}

func (f *chainFixture) loop(set *core.Set, args ...core.Arg) core.Loop {
	return core.NewLoop(f.k, set, args...)
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCalcHaloLayersSynthetic checks the MG-CFD synthetic chain of Section
// 4.1.1: repeating (update INC res; edge_flux READ res) pairs yields halo
// extension 2 for every update and 1 for every edge_flux, i.e. r = 2
// regardless of the loop count — exactly the paper's benchmark setting.
func TestCalcHaloLayersSynthetic(t *testing.T) {
	f := newFixture()
	res, pres := f.qo, f.vol
	update := f.loop(f.edges,
		core.ArgDat(res, 0, f.e2n, core.Inc), core.ArgDat(res, 1, f.e2n, core.Inc),
		core.ArgDat(pres, 0, f.e2n, core.Read), core.ArgDat(pres, 1, f.e2n, core.Read))
	flux := f.loop(f.edges,
		core.ArgDat(f.fl, 0, f.e2n, core.Inc), core.ArgDat(f.fl, 1, f.e2n, core.Inc),
		core.ArgDat(res, 0, f.e2n, core.Read), core.ArgDat(res, 1, f.e2n, core.Read))

	for _, nchains := range []int{1, 4, 16} {
		var loops []core.Loop
		want := []int{}
		for i := 0; i < nchains; i++ {
			loops = append(loops, update, flux)
			want = append(want, 2, 1)
		}
		got := CalcHaloLayers(loops)
		if !intsEqual(got, want) {
			t.Errorf("nchains=%d: HE = %v, want %v", nchains, got, want)
		}
	}
}

// TestCalcHaloLayersGradl reproduces Table 3's gradl chain: edgecon
// (INC qp, INC ql over edges) then period (RW qp, RW ql over pedges) gives
// extensions 2 and 1.
func TestCalcHaloLayersGradl(t *testing.T) {
	f := newFixture()
	edgecon := f.loop(f.edges,
		core.ArgDat(f.qp, 0, f.e2n, core.Inc), core.ArgDat(f.qp, 1, f.e2n, core.Inc),
		core.ArgDat(f.ql, 0, f.e2n, core.Inc), core.ArgDat(f.ql, 1, f.e2n, core.Inc))
	period := f.loop(f.pedges,
		core.ArgDat(f.qp, 0, f.p2n, core.ReadWrite), core.ArgDat(f.qp, 1, f.p2n, core.ReadWrite),
		core.ArgDat(f.ql, 0, f.p2n, core.ReadWrite), core.ArgDat(f.ql, 1, f.p2n, core.ReadWrite))
	got := CalcHaloLayers([]core.Loop{edgecon, period})
	if !intsEqual(got, []int{2, 1}) {
		t.Errorf("gradl HE = %v, want [2 1]", got)
	}
}

// TestCalcHaloLayersJacob reproduces Table 4's jacob chain (all extensions
// 1): jac_period (RW jac), jac_centreline (no halo dats), jac_corrections
// (INC jac).
func TestCalcHaloLayersJacob(t *testing.T) {
	f := newFixture()
	jacPeriod := f.loop(f.pedges,
		core.ArgDat(f.jac, 0, f.p2n, core.ReadWrite), core.ArgDat(f.jac, 1, f.p2n, core.ReadWrite))
	jacCentre := f.loop(f.cbnd, core.ArgDat(f.vol, 0, f.cb2n, core.Write))
	jacCorr := f.loop(f.bnd, core.ArgDat(f.jac, 0, f.b2n, core.Inc))
	got := CalcHaloLayers([]core.Loop{jacPeriod, jacCentre, jacCorr})
	if !intsEqual(got, []int{1, 1, 1}) {
		t.Errorf("jacob HE = %v, want [1 1 1]", got)
	}
}

// TestCalcHaloLayersVflux reproduces Table 4's vflux/iflux shape: a direct
// init loop over nodes followed by an edge loop indirectly reading several
// dats — single halo level everywhere.
func TestCalcHaloLayersVflux(t *testing.T) {
	f := newFixture()
	initres := f.loop(f.nodes, core.ArgDatDirect(f.fl, core.Write))
	vfluxEdge := f.loop(f.edges,
		core.ArgDat(f.fl, 0, f.e2n, core.Inc), core.ArgDat(f.fl, 1, f.e2n, core.Inc),
		core.ArgDat(f.qp, 0, f.e2n, core.Read), core.ArgDat(f.qp, 1, f.e2n, core.Read),
		core.ArgDat(f.ql, 0, f.e2n, core.Read), core.ArgDat(f.ql, 1, f.e2n, core.Read))
	got := CalcHaloLayers([]core.Loop{initres, vfluxEdge})
	if !intsEqual(got, []int{1, 1}) {
		t.Errorf("vflux HE = %v, want [1 1]", got)
	}
}

// TestCalcHaloLayersPeriod reproduces Table 3's period chain (6 loops):
// negflag (RW vol), limxp (RW qo, READ vol), periodicity (RW qo), limxp,
// periodicity, negflag — per-loop extensions [2 2 1 2 1 1].
func TestCalcHaloLayersPeriod(t *testing.T) {
	f := newFixture()
	negflag := f.loop(f.pedges,
		core.ArgDat(f.vol, 0, f.p2n, core.ReadWrite), core.ArgDat(f.vol, 1, f.p2n, core.ReadWrite))
	limxp := f.loop(f.edges,
		core.ArgDat(f.qo, 0, f.e2n, core.ReadWrite), core.ArgDat(f.qo, 1, f.e2n, core.ReadWrite),
		core.ArgDat(f.vol, 0, f.e2n, core.Read), core.ArgDat(f.vol, 1, f.e2n, core.Read))
	periodicity := f.loop(f.pedges,
		core.ArgDat(f.qo, 0, f.p2n, core.ReadWrite), core.ArgDat(f.qo, 1, f.p2n, core.ReadWrite))
	loops := []core.Loop{negflag, limxp, periodicity, limxp, periodicity, negflag}
	got := CalcHaloLayers(loops)
	if !intsEqual(got, []int{2, 2, 1, 2, 1, 1}) {
		t.Errorf("period HE = %v, want [2 2 1 2 1 1]", got)
	}
}

func TestSafeHaloLayersSynthetic(t *testing.T) {
	f := newFixture()
	res := f.qo
	update := f.loop(f.edges,
		core.ArgDat(res, 0, f.e2n, core.Inc),
		core.ArgDat(f.vol, 0, f.e2n, core.Read))
	flux := f.loop(f.edges,
		core.ArgDat(f.fl, 0, f.e2n, core.Inc),
		core.ArgDat(res, 0, f.e2n, core.Read))
	got, _, _ := SafeAnalysis([]core.Loop{update, flux})
	if !intsEqual(got, []int{2, 1}) {
		t.Errorf("safe HE = %v, want [2 1]", got)
	}
	// A 3-deep dependency chain: w -> x -> y.
	l0 := f.loop(f.edges, core.ArgDat(f.qp, 0, f.e2n, core.Inc), core.ArgDat(f.vol, 0, f.e2n, core.Read))
	l1 := f.loop(f.edges, core.ArgDat(f.ql, 0, f.e2n, core.Inc), core.ArgDat(f.qp, 0, f.e2n, core.Read))
	l2 := f.loop(f.edges, core.ArgDat(f.fl, 0, f.e2n, core.Inc), core.ArgDat(f.ql, 0, f.e2n, core.Read))
	got, _, _ = SafeAnalysis([]core.Loop{l0, l1, l2})
	if !intsEqual(got, []int{3, 2, 1}) {
		t.Errorf("safe HE for 3-chain = %v, want [3 2 1]", got)
	}
}

func TestSafeAtLeastAsDeepOnTables(t *testing.T) {
	f := newFixture()
	chains := [][]core.Loop{
		{
			f.loop(f.edges, core.ArgDat(f.qp, 0, f.e2n, core.Inc)),
			f.loop(f.pedges, core.ArgDat(f.qp, 0, f.p2n, core.ReadWrite)),
		},
		{
			f.loop(f.nodes, core.ArgDatDirect(f.fl, core.Write)),
			f.loop(f.edges, core.ArgDat(f.fl, 0, f.e2n, core.Inc), core.ArgDat(f.qp, 0, f.e2n, core.Read)),
		},
	}
	for i, loops := range chains {
		a3 := CalcHaloLayers(loops)
		safe, _, _ := SafeAnalysis(loops)
		for l := range loops {
			if safe[l] < a3[l] {
				t.Errorf("chain %d loop %d: safe HE %d < Algorithm 3 HE %d", i, l, safe[l], a3[l])
			}
		}
	}
}

func TestInspectRequiredDepths(t *testing.T) {
	f := newFixture()
	update := f.loop(f.edges,
		core.ArgDat(f.qo, 0, f.e2n, core.Inc),
		core.ArgDat(f.vol, 0, f.e2n, core.Read))
	ew := f.p.DeclDat(f.edges, 1, nil, "ew")
	flux := f.loop(f.edges,
		core.ArgDat(f.fl, 0, f.e2n, core.Inc),
		core.ArgDat(f.qo, 0, f.e2n, core.Read),
		core.ArgDatDirect(ew, core.Read))
	plan, err := Inspect("synth", []core.Loop{update, flux}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !intsEqual(plan.HE, []int{2, 1}) {
		t.Fatalf("plan HE = %v", plan.HE)
	}
	if plan.MaxDepth != 2 {
		t.Fatalf("MaxDepth = %d, want 2", plan.MaxDepth)
	}
	req := map[string]DatExchange{}
	for _, r := range plan.Required {
		req[r.Dat.Name] = r
	}
	// Equation (4): halo-exchange dats ship shells up to the halo
	// extension of every loop that accesses them.
	// vol: read indirectly by the depth-2 loop -> depth 2.
	if r := req["vol"]; r.ExecDepth != 2 || r.NonexecDepth != 2 {
		t.Errorf("vol required = %+v, want exec 2 nonexec 2", r)
	}
	// qo: read at depth 1 and incremented at depth 2 -> depth 2.
	if r := req["qo"]; r.ExecDepth != 2 || r.NonexecDepth != 2 {
		t.Errorf("qo required = %+v, want exec 2 nonexec 2", r)
	}
	// ew: direct read at depth 1 -> exec only.
	if r := req["ew"]; r.ExecDepth != 1 || r.NonexecDepth != 0 {
		t.Errorf("ew required = %+v, want exec 1 nonexec 0", r)
	}
	// flux: increment-only, never read in the chain -> not a
	// halo-exchange dat.
	if _, ok := req["flux"]; ok {
		t.Error("flux should not require exchange")
	}
}

func TestInspectOverrides(t *testing.T) {
	f := newFixture()
	l0 := f.loop(f.edges, core.ArgDat(f.qo, 0, f.e2n, core.Inc))
	l1 := f.loop(f.edges, core.ArgDat(f.qo, 0, f.e2n, core.Read))
	plan, err := Inspect("c", []core.Loop{l0, l1}, []int{3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !intsEqual(plan.HE, []int{3, 1}) {
		t.Fatalf("HE = %v, want [3 1]", plan.HE)
	}
	if _, err := Inspect("c", []core.Loop{l0, l1}, []int{1}); err == nil {
		t.Error("expected error for override length mismatch")
	}
	if _, err := Inspect("c", nil, nil); err == nil {
		t.Error("expected error for empty chain")
	}
	red := f.loop(f.nodes, core.ArgGbl(make([]float64, 1), core.Inc))
	if _, err := Inspect("c", []core.Loop{red}, nil); err == nil {
		t.Error("expected error for global reduction in chain")
	}
}

func TestPlanDescribe(t *testing.T) {
	f := newFixture()
	update := f.loop(f.edges,
		core.ArgDat(f.qo, 0, f.e2n, core.Inc),
		core.ArgDat(f.vol, 0, f.e2n, core.Read))
	flux := f.loop(f.edges,
		core.ArgDat(f.fl, 0, f.e2n, core.Inc),
		core.ArgDat(f.qo, 0, f.e2n, core.Read))
	loops := []core.Loop{update, flux}
	plan, err := Inspect("synth", loops, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := plan.Describe(loops)
	for _, want := range []string{"chain synth", "HE=2", "HE=1", "grouped message ships", "vol", "exec shells 1..2"} {
		if !containsStr(s, want) {
			t.Errorf("Describe missing %q:\n%s", want, s)
		}
	}
	// A chain with nothing to ship.
	direct := f.loop(f.nodes, core.ArgDatDirect(f.fl, core.Write))
	direct2 := f.loop(f.nodes, core.ArgDatDirect(f.vol, core.Write))
	p2, err := Inspect("empty", []core.Loop{direct, direct2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := p2.Describe([]core.Loop{direct, direct2}); !containsStr(s, "none") {
		t.Errorf("empty-plan Describe missing 'none':\n%s", s)
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}

func TestDatAccessStrongestWins(t *testing.T) {
	f := newFixture()
	l := f.loop(f.edges,
		core.ArgDat(f.qo, 0, f.e2n, core.Read),
		core.ArgDat(f.qo, 1, f.e2n, core.Inc))
	a, ok := datAccess(l, f.qo)
	if !ok || a.Mode != core.Inc {
		t.Errorf("strongest access = %v, want OP_INC", a.Mode)
	}
	if _, ok := datAccess(l, f.vol); ok {
		t.Error("vol should not be found")
	}
}
