package hydra

import (
	"math"
	"testing"

	"op2ca/internal/ca"
	"op2ca/internal/cluster"
	"op2ca/internal/core"
	"op2ca/internal/mesh"
	"op2ca/internal/partition"
)

// recorder captures the loops a chain method issues, for inspector tests.
type recorder struct{ loops []core.Loop }

func (r *recorder) ParLoop(l core.Loop) { r.loops = append(r.loops, l) }
func (r *recorder) ChainBegin(string)   {}
func (r *recorder) ChainEnd()           {}
func (r *recorder) Name() string        { return "recorder" }
func (r *recorder) reset() []core.Loop  { l := r.loops; r.loops = nil; return l }

func testMesh() *mesh.FV3D { return mesh.Rotor(10, 8, 6) }

// TestChainHaloExtensions reproduces the halo-extension columns of Tables 3
// and 4 from Algorithm 3 running on the proxy's access descriptors.
func TestChainHaloExtensions(t *testing.T) {
	a := New(testMesh())
	rec := &recorder{}

	cases := []struct {
		name string
		emit func()
		want []int
	}{
		{"period", func() { a.RunPeriod(rec, false) }, []int{2, 2, 1, 2, 1, 1}},
		{"gradl", func() { a.RunGradl(rec, false) }, []int{2, 1}},
		{"vflux", func() { a.RunVflux(rec, false) }, []int{1, 1}},
		{"iflux", func() { a.RunIflux(rec, false) }, []int{1, 1}},
		{"jacob", func() { a.RunJacob(rec, false) }, []int{1, 1, 1}},
	}
	for _, c := range cases {
		c.emit()
		loops := rec.reset()
		got := ca.CalcHaloLayers(loops)
		if len(got) != len(c.want) {
			t.Fatalf("%s: %d loops, want %d", c.name, len(got), len(c.want))
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: Algorithm 3 HE = %v, want %v (Table 3/4)", c.name, got, c.want)
				break
			}
		}
	}

	// The weight chain's published extensions come from the configuration
	// file (application knowledge); check the config reproduces Table 3.
	a.RunWeight(rec, false)
	loops := rec.reset()
	cfg := MustPaperConfig()
	over, err := cfg.Get("weight").HEOverrides(len(loops))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ca.Inspect("weight", loops, over)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 1, 2, 2, 1}
	for i := range want {
		if plan.HE[i] != want[i] {
			t.Fatalf("weight configured HE = %v, want %v", plan.HE, want)
		}
	}
}

func TestIterationStaysFinite(t *testing.T) {
	a := New(testMesh())
	b := core.NewSeq()
	a.RunSetup(b, false)
	for it := 0; it < 20; it++ {
		a.RunIteration(b, false)
	}
	for _, d := range []*core.Dat{a.Qp, a.Ql, a.Qo, a.Vol, a.Jac, a.Res, a.Qmu, a.Qrg} {
		for i, v := range d.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				t.Fatalf("%s[%d] = %g after 20 iterations", d.Name, i, v)
			}
		}
	}
}

func runApp(b core.Backend, a *App, iters int, chained bool) {
	a.RunSetup(b, chained)
	for it := 0; it < iters; it++ {
		a.RunIteration(b, chained)
	}
}

func maxRelDiff(got, want []float64) float64 {
	worst := 0.0
	for i := range want {
		rel := math.Abs(got[i]-want[i]) / (math.Abs(want[i]) + 1e-30)
		if rel > worst {
			worst = rel
		}
	}
	return worst
}

func TestDistributedOP2MatchesSeq(t *testing.T) {
	m := testMesh()
	ref := New(m)
	runApp(core.NewSeq(), ref, 3, false)

	a := New(m)
	assign := partition.RIB(m.Coords, 3, 4) // Hydra's default partitioner
	b, err := cluster.New(cluster.Config{
		Prog: a.Prog, Primary: a.Nodes, Assign: assign, NParts: 4, Depth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	runApp(b, a, 3, false)
	for _, pair := range [][2]*core.Dat{
		{a.Qp, ref.Qp}, {a.Ql, ref.Ql}, {a.Qo, ref.Qo}, {a.Vol, ref.Vol},
		{a.Jac, ref.Jac}, {a.Res, ref.Res}, {a.Qrg, ref.Qrg},
	} {
		if rel := maxRelDiff(b.GatherDat(pair[0]), pair[1].Data); rel > 1e-9 {
			t.Fatalf("%s: max rel diff %g vs sequential", pair[0].Name, rel)
		}
	}
}

// TestCASafeModeMatchesSeq checks exactness when the inspector's safe
// analysis picks the halo extensions (deeper than the paper's for the
// weight and period chains).
func TestCASafeModeMatchesSeq(t *testing.T) {
	m := testMesh()
	ref := New(m)
	runApp(core.NewSeq(), ref, 3, true)

	a := New(m)
	assign := partition.RIB(m.Coords, 3, 4)
	b, err := cluster.New(cluster.Config{
		Prog: a.Prog, Primary: a.Nodes, Assign: assign, NParts: 4,
		Depth: 5, MaxChainLen: 6, CA: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	runApp(b, a, 3, true)
	for _, pair := range [][2]*core.Dat{
		{a.Qp, ref.Qp}, {a.Ql, ref.Ql}, {a.Qo, ref.Qo}, {a.Vol, ref.Vol},
		{a.Jac, ref.Jac}, {a.Res, ref.Res}, {a.Qrg, ref.Qrg},
	} {
		if rel := maxRelDiff(b.GatherDat(pair[0]), pair[1].Data); rel > 1e-9 {
			t.Fatalf("%s: max rel diff %g vs sequential (safe mode must be exact)", pair[0].Name, rel)
		}
	}
	for _, name := range []string{"weight", "period", "gradl", "vflux", "iflux", "jacob"} {
		cs := b.Stats().Chains[name]
		if cs == nil || cs.CAExecutions == 0 {
			t.Errorf("chain %s did not execute with CA: %+v", name, cs)
		}
	}
}

// TestCAPaperConfigBoundedDeviation runs the published halo extensions
// (Tables 3-4). The weight and period chains' published extensions are
// shallower than the conservative analysis requires, so results may deviate
// at partition boundaries; the paper relies on the production numerics
// tolerating this. The test quantifies the deviation and requires it small.
func TestCAPaperConfigBoundedDeviation(t *testing.T) {
	m := testMesh()
	ref := New(m)
	runApp(core.NewSeq(), ref, 3, true)

	a := New(m)
	assign := partition.RIB(m.Coords, 3, 4)
	b, err := cluster.New(cluster.Config{
		Prog: a.Prog, Primary: a.Nodes, Assign: assign, NParts: 4,
		Depth: 2, MaxChainLen: 6, CA: true, Chains: MustPaperConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	runApp(b, a, 3, true)
	worst := 0.0
	for _, pair := range [][2]*core.Dat{
		{a.Qp, ref.Qp}, {a.Ql, ref.Ql}, {a.Qo, ref.Qo}, {a.Vol, ref.Vol}, {a.Res, ref.Res},
	} {
		rel := maxRelDiff(b.GatherDat(pair[0]), pair[1].Data)
		t.Logf("%s: max rel deviation %.3g under published halo extensions", pair[0].Name, rel)
		if rel > worst {
			worst = rel
		}
		for _, v := range b.GatherDat(pair[0]) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s contains non-finite values", pair[0].Name)
			}
		}
	}
	if worst > 0.02 {
		t.Fatalf("deviation %.3g exceeds 2%%; published extensions should only perturb boundary values slightly", worst)
	}
}

// TestChainMessageReduction: the period and jacob chains (highest
// communication reduction in the paper) must send fewer messages under CA.
func TestChainMessageReduction(t *testing.T) {
	m := testMesh()
	assign := partition.RIB(m.Coords, 3, 6)
	run := func(caMode bool) *cluster.Backend {
		a := New(m)
		b, err := cluster.New(cluster.Config{
			Prog: a.Prog, Primary: a.Nodes, Assign: assign, NParts: 6,
			Depth: 2, MaxChainLen: 6, CA: caMode, Chains: MustPaperConfig(),
		})
		if err != nil {
			t.Fatal(err)
		}
		runApp(b, a, 2, caMode)
		return b
	}
	op2 := run(false)
	cab := run(true)
	count := func(b *cluster.Backend) int64 {
		var n int64
		for _, ls := range b.Stats().Loops {
			n += ls.Msgs
		}
		for _, cs := range b.Stats().Chains {
			n += cs.Msgs
		}
		return n
	}
	if count(cab) >= count(op2) {
		t.Fatalf("CA messages %d >= OP2 messages %d", count(cab), count(op2))
	}
}
