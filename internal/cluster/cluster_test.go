package cluster

import (
	"fmt"
	"math"
	"testing"

	"op2ca/internal/chaincfg"
	"op2ca/internal/core"
	"op2ca/internal/machine"
	"op2ca/internal/mesh"
	"op2ca/internal/partition"
)

// miniApp is a small but representative application over a rotor mesh:
// node data incremented from edges, read back from edges, synchronised over
// periodic edges, accumulated from boundary faces, and scaled directly.
// All data is integer-valued so distributed execution must match the
// sequential reference bit for bit despite reordered increments.
type miniApp struct {
	p                    *core.Program
	nodes, edges         *core.Set
	bedges, pedges       *core.Set
	e2n, b2n, p2n        *core.Map
	res, pres, flux, vol *core.Dat
	ew                   *core.Dat
}

func newMiniApp(m *mesh.FV3D) *miniApp {
	a := &miniApp{p: core.NewProgram()}
	a.nodes = a.p.DeclSet(m.NNodes, "nodes")
	a.edges = a.p.DeclSet(m.NEdges, "edges")
	a.bedges = a.p.DeclSet(m.NBedges, "bedges")
	a.pedges = a.p.DeclSet(m.NPedges, "pedges")
	a.e2n = a.p.DeclMap(a.edges, a.nodes, 2, m.EdgeNodes, "e2n")
	a.b2n = a.p.DeclMap(a.bedges, a.nodes, 1, m.BedgeNodes, "b2n")
	if m.NPedges > 0 {
		a.p2n = a.p.DeclMap(a.pedges, a.nodes, 2, m.PedgeNodes, "p2n")
	}
	a.res = a.p.DeclDat(a.nodes, 2, nil, "res")
	a.pres = a.p.DeclDat(a.nodes, 2, nil, "pres")
	a.flux = a.p.DeclDat(a.nodes, 2, nil, "flux")
	a.vol = a.p.DeclDat(a.nodes, 1, nil, "vol")
	a.ew = a.p.DeclDat(a.edges, 1, nil, "ew")
	// Deterministic small-integer data: exact in float64 arithmetic.
	for i := range a.pres.Data {
		a.pres.Data[i] = float64(i%7 - 3)
	}
	for i := range a.vol.Data {
		a.vol.Data[i] = float64(i%5 + 1)
	}
	for i := range a.ew.Data {
		a.ew.Data[i] = float64(i%3 + 1)
	}
	return a
}

var (
	kUpdate = &core.Kernel{Name: "update", Flops: 8, MemBytes: 64, Fn: func(a [][]float64) {
		res1, res2, pres1, pres2 := a[0], a[1], a[2], a[3]
		res1[0] += pres1[0] - pres1[1]
		res1[1] += pres2[0] - pres2[1]
		res2[0] += pres2[1] - pres2[0]
		res2[1] += pres1[1] - pres1[0]
	}}
	kFlux = &core.Kernel{Name: "edge_flux", Flops: 12, MemBytes: 96, Fn: func(a [][]float64) {
		flux1, flux2, res1, res2, ew := a[0], a[1], a[2], a[3], a[4]
		flux1[0] += res1[0] * ew[0]
		flux1[1] += res2[1] * ew[0]
		flux2[0] += res2[0] - res1[1]*ew[0]
		flux2[1] += res1[1] + res2[0]
	}}
	kPeriodic = &core.Kernel{Name: "periodic", Flops: 4, MemBytes: 32, Fn: func(a [][]float64) {
		qa, qb := a[0], a[1]
		s0 := qa[0] + qb[0]
		s1 := qa[1] + qb[1]
		qa[0], qb[0] = s0, s0
		qa[1], qb[1] = s1, s1
	}}
	kBnd = &core.Kernel{Name: "bnd_inc", Flops: 2, MemBytes: 24, Fn: func(a [][]float64) {
		a[0][0] += 2 * a[1][0]
	}}
	kScale = &core.Kernel{Name: "scale", Flops: 4, MemBytes: 48, Fn: func(a [][]float64) {
		a[0][0] = 2*a[0][0] - a[1][0]
		a[0][1] = 2*a[0][1] + a[1][0]
	}}
)

// run executes the mini-app's loop sequence against any backend:
// two time steps of [chain(update, flux); periodic sync; boundary
// accumulation; direct scale].
func (a *miniApp) run(b core.Backend, steps int, chain bool) {
	for t := 0; t < steps; t++ {
		if chain {
			b.ChainBegin("synth")
		}
		b.ParLoop(core.NewLoop(kUpdate, a.edges,
			core.ArgDat(a.res, 0, a.e2n, core.Inc), core.ArgDat(a.res, 1, a.e2n, core.Inc),
			core.ArgDat(a.pres, 0, a.e2n, core.Read), core.ArgDat(a.pres, 1, a.e2n, core.Read)))
		b.ParLoop(core.NewLoop(kFlux, a.edges,
			core.ArgDat(a.flux, 0, a.e2n, core.Inc), core.ArgDat(a.flux, 1, a.e2n, core.Inc),
			core.ArgDat(a.res, 0, a.e2n, core.Read), core.ArgDat(a.res, 1, a.e2n, core.Read),
			core.ArgDatDirect(a.ew, core.Read)))
		if chain {
			b.ChainEnd()
		}
		if a.p2n != nil {
			b.ParLoop(core.NewLoop(kPeriodic, a.pedges,
				core.ArgDat(a.flux, 0, a.p2n, core.ReadWrite),
				core.ArgDat(a.flux, 1, a.p2n, core.ReadWrite)))
		}
		b.ParLoop(core.NewLoop(kBnd, a.bedges,
			core.ArgDat(a.res, 0, a.b2n, core.Inc),
			core.ArgDatDirect(a.p.DatByName("bw"), core.Read)))
		b.ParLoop(core.NewLoop(kScale, a.nodes,
			core.ArgDatDirect(a.flux, core.ReadWrite),
			core.ArgDatDirect(a.vol, core.Read)))
	}
}

// seqResult runs the mini-app sequentially and returns the final dats.
func seqResult(m *mesh.FV3D, steps int) map[string][]float64 {
	a := newMiniApp(m)
	a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
	a.run(core.NewSeq(), steps, false)
	return map[string][]float64{
		"res": a.res.Data, "flux": a.flux.Data,
	}
}

func makeBW(n int) []float64 {
	bw := make([]float64, n)
	for i := range bw {
		bw[i] = float64(i%4 - 1)
	}
	return bw
}

// clusterResult runs the mini-app on a distributed backend.
func clusterResult(t *testing.T, m *mesh.FV3D, steps, nparts int, caMode, chain, parallel bool,
	assign partition.Assignment) (map[string][]float64, *Backend) {
	t.Helper()
	a := newMiniApp(m)
	a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
	b, err := New(Config{
		Prog: a.p, Primary: a.nodes, Assign: assign, NParts: nparts,
		Depth: 2, MaxChainLen: 4, CA: caMode, Parallel: parallel,
		Machine: machine.ARCHER2(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	a.run(b, steps, chain)
	return map[string][]float64{
		"res": b.GatherDat(a.res), "flux": b.GatherDat(a.flux),
	}, b
}

func compareExact(t *testing.T, name string, got, want map[string][]float64) {
	t.Helper()
	for key, w := range want {
		g := got[key]
		if len(g) != len(w) {
			t.Fatalf("%s: %s length %d, want %d", name, key, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: %s[%d] = %g, want %g", name, key, i, g[i], w[i])
			}
		}
	}
}

func TestStandardMatchesSeq(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	want := seqResult(m, 2)
	adj := m.NodeAdjacency()
	for _, nparts := range []int{1, 2, 4, 7} {
		for pname, assign := range map[string]partition.Assignment{
			"kway":   partition.KWay(adj, nparts),
			"block":  partition.Block(m.NNodes, nparts),
			"random": partition.Random(m.NNodes, nparts, 99),
		} {
			got, _ := clusterResult(t, m, 2, nparts, false, false, false, assign)
			compareExact(t, pname, got, want)
		}
	}
}

func TestCAChainMatchesSeq(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	want := seqResult(m, 2)
	adj := m.NodeAdjacency()
	for _, nparts := range []int{1, 2, 4, 7} {
		assign := partition.KWay(adj, nparts)
		got, b := clusterResult(t, m, 2, nparts, true, true, false, assign)
		compareExact(t, "ca", got, want)
		cs := b.Stats().Chains["synth"]
		if cs == nil || cs.CAExecutions != 2 {
			t.Fatalf("nparts=%d: chain stats = %+v", nparts, cs)
		}
		if he := cs.HE; len(he) != 2 || he[0] != 2 || he[1] != 1 {
			t.Fatalf("nparts=%d: HE = %v, want [2 1]", nparts, he)
		}
	}
}

func TestChainFallbackWithoutCA(t *testing.T) {
	m := mesh.Rotor(6, 5, 4)
	want := seqResult(m, 1)
	assign := partition.Block(m.NNodes, 3)
	got, b := clusterResult(t, m, 1, 3, false, true, false, assign)
	compareExact(t, "fallback", got, want)
	cs := b.Stats().Chains["synth"]
	if cs == nil || cs.CAExecutions != 0 || cs.Executions != 1 {
		t.Fatalf("chain stats = %+v", cs)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	assign := partition.KWay(m.NodeAdjacency(), 5)
	serial, _ := clusterResult(t, m, 2, 5, true, true, false, assign)
	parallel, _ := clusterResult(t, m, 2, 5, true, true, true, assign)
	compareExact(t, "parallel", parallel, serial)
}

// TestCAReducesMessages checks the headline communication effect: a CA chain
// sends one grouped message per neighbour pair instead of several per-dat
// messages per loop.
func TestCAReducesMessages(t *testing.T) {
	m := mesh.Rotor(10, 8, 6)
	assign := partition.KWay(m.NodeAdjacency(), 6)
	_, op2 := clusterResult(t, m, 3, 6, false, false, false, assign)
	_, cab := clusterResult(t, m, 3, 6, true, true, false, assign)

	op2Msgs := int64(0)
	for _, ls := range op2.Stats().Loops {
		op2Msgs += ls.Msgs
	}
	caMsgs := int64(0)
	for _, ls := range cab.Stats().Loops {
		caMsgs += ls.Msgs
	}
	for _, cs := range cab.Stats().Chains {
		caMsgs += cs.Msgs
	}
	if caMsgs >= op2Msgs {
		t.Fatalf("CA sent %d messages, OP2 sent %d; CA should send fewer", caMsgs, op2Msgs)
	}
}

func TestDirtyBitAvoidsRedundantExchanges(t *testing.T) {
	m := mesh.Rotor(6, 5, 4)
	a := newMiniApp(m)
	a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
	b, err := New(Config{Prog: a.p, Primary: a.nodes,
		Assign: partition.Block(m.NNodes, 4), NParts: 4, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	read := core.NewLoop(kFlux, a.edges,
		core.ArgDat(a.flux, 0, a.e2n, core.Inc), core.ArgDat(a.flux, 1, a.e2n, core.Inc),
		core.ArgDat(a.res, 0, a.e2n, core.Read), core.ArgDat(a.res, 1, a.e2n, core.Read),
		core.ArgDatDirect(a.ew, core.Read))
	// First execution: res and ew halos are still valid from the initial
	// scatter, so no messages at all.
	b.ParLoop(read)
	if msgs := b.Stats().Loops["edge_flux"].Msgs; msgs != 0 {
		t.Fatalf("first read sent %d messages, want 0 (halos valid from scatter)", msgs)
	}
	// Dirty res, then read again: now an exchange must happen.
	b.ParLoop(core.NewLoop(kUpdate, a.edges,
		core.ArgDat(a.res, 0, a.e2n, core.Inc), core.ArgDat(a.res, 1, a.e2n, core.Inc),
		core.ArgDat(a.pres, 0, a.e2n, core.Read), core.ArgDat(a.pres, 1, a.e2n, core.Read)))
	b.ParLoop(read)
	if msgs := b.Stats().Loops["edge_flux"].Msgs; msgs == 0 {
		t.Fatal("read after increment sent no messages; dirty res should force an exchange")
	}
}

func TestGlobalReductionMatchesSeq(t *testing.T) {
	m := mesh.Rotor(6, 5, 4)
	build := func() (*core.Program, *core.Set, *core.Dat) {
		p := core.NewProgram()
		nodes := p.DeclSet(m.NNodes, "nodes")
		x := p.DeclDat(nodes, 1, nil, "x")
		for i := range x.Data {
			x.Data[i] = float64(i%11 - 5)
		}
		return p, nodes, x
	}
	k := &core.Kernel{Name: "reduce", Fn: func(a [][]float64) {
		v := a[0][0]
		a[1][0] += v * v
		if v < a[2][0] {
			a[2][0] = v
		}
		if v > a[3][0] {
			a[3][0] = v
		}
	}}
	runOn := func(b core.Backend, p *core.Program, nodes *core.Set, x *core.Dat) (float64, float64, float64) {
		sum := []float64{0}
		mn := []float64{math.Inf(1)}
		mx := []float64{math.Inf(-1)}
		b.ParLoop(core.NewLoop(k, nodes, core.ArgDatDirect(x, core.Read),
			core.ArgGbl(sum, core.Inc), core.ArgGbl(mn, core.Min), core.ArgGbl(mx, core.Max)))
		return sum[0], mn[0], mx[0]
	}
	p, nodes, x := build()
	wsum, wmn, wmx := runOn(core.NewSeq(), p, nodes, x)

	p2, nodes2, x2 := build()
	b, err := New(Config{Prog: p2, Primary: nodes2, Assign: partition.Block(m.NNodes, 5), NParts: 5})
	if err != nil {
		t.Fatal(err)
	}
	gsum, gmn, gmx := runOn(b, p2, nodes2, x2)
	if gsum != wsum || gmn != wmn || gmx != wmx {
		t.Fatalf("distributed reduction = (%g,%g,%g), want (%g,%g,%g)", gsum, gmn, gmx, wsum, wmn, wmx)
	}
	_ = x
}

// TestGatherScatterRoundtrip: values a direct loop writes on the owning
// ranks gather back in global order.
func TestGatherScatterRoundtrip(t *testing.T) {
	m := mesh.Rotor(5, 4, 4)
	a := newMiniApp(m)
	a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
	fresh := make([]float64, len(a.res.Data))
	for i := range fresh {
		fresh[i] = float64(i)
	}
	src := a.p.DeclDat(a.nodes, a.res.Dim, fresh, "src")
	b, err := New(Config{Prog: a.p, Primary: a.nodes,
		Assign: partition.Block(m.NNodes, 3), NParts: 3})
	if err != nil {
		t.Fatal(err)
	}
	b.ParLoop(core.NewLoop(&core.Kernel{Name: "seed", Fn: func(v [][]float64) { copy(v[0], v[1]) }},
		a.nodes, core.ArgDatDirect(a.res, core.Write), core.ArgDatDirect(src, core.Read)))
	got := b.GatherDat(a.res)
	for i := range fresh {
		if got[i] != fresh[i] {
			t.Fatalf("roundtrip res[%d] = %g, want %g", i, got[i], fresh[i])
		}
	}
}

func TestVirtualClocksAdvance(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	assign := partition.KWay(m.NodeAdjacency(), 4)
	_, b := clusterResult(t, m, 1, 4, false, false, false, assign)
	if b.MaxClock() <= 0 {
		t.Fatal("virtual clock did not advance")
	}
	for _, c := range b.Clocks() {
		if c <= 0 {
			t.Fatal("some rank's clock did not advance")
		}
	}
}

// TestGPUDirectSlowerThanStaging reproduces the paper's Section 3.3
// observation: for kernels heavy enough that core computation can hide the
// exchange, the staged PCIe pipeline (which overlaps with kernels) beats
// GPUDirect (which, as the paper measured, does not run simultaneously
// with compute kernels). For featherweight kernels the relation flips —
// GPUDirect saves the staging latencies and nothing needed hiding — which
// the test also checks.
func TestGPUDirectSlowerThanStaging(t *testing.T) {
	m := mesh.RotorForNodes(20000)
	assign := partition.KWay(m.NodeAdjacency(), 4)

	run := func(direct bool, k *core.Kernel) float64 {
		p := core.NewProgram()
		nodes := p.DeclSet(m.NNodes, "nodes")
		edges := p.DeclSet(m.NEdges, "edges")
		e2n := p.DeclMap(edges, nodes, 2, m.EdgeNodes, "e2n")
		x := p.DeclDat(nodes, 1, nil, "x")
		y := p.DeclDat(nodes, 1, nil, "y")
		b, err := New(Config{
			Prog: p, Primary: nodes, Assign: assign, NParts: 4,
			Depth: 2, MaxChainLen: 2, CA: true, GPUDirect: direct,
			Machine: machine.Cirrus(),
		})
		if err != nil {
			t.Fatal(err)
		}
		for it := 0; it < 3; it++ {
			b.ChainBegin("gd")
			b.ParLoop(core.NewLoop(k, edges,
				core.ArgDat(y, 0, e2n, core.Inc), core.ArgDat(x, 1, e2n, core.Read)))
			b.ParLoop(core.NewLoop(k, edges,
				core.ArgDat(x, 0, e2n, core.Inc), core.ArgDat(y, 1, e2n, core.Read)))
			b.ChainEnd()
		}
		return b.MaxClock()
	}

	// A heavy flux-like kernel: cores hide the exchange, staging wins.
	heavy := &core.Kernel{Name: "gd_heavy", Flops: 3000, MemBytes: 6000,
		Fn: func(a [][]float64) { a[0][0] += a[1][0] }}
	staged := run(false, heavy)
	direct := run(true, heavy)
	if direct <= staged {
		t.Errorf("heavy kernels: GPUDirect (%.6fs) should be slower than the staging pipeline (%.6fs)",
			direct, staged)
	}

	// A featherweight kernel: nothing to hide, GPUDirect's saved staging
	// latencies win.
	light := &core.Kernel{Name: "gd_light", Flops: 2, MemBytes: 16,
		Fn: func(a [][]float64) { a[0][0] += a[1][0] }}
	staged = run(false, light)
	direct = run(true, light)
	if direct >= staged {
		t.Errorf("light kernels: GPUDirect (%.6fs) should beat staging (%.6fs)", direct, staged)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("expected error for missing program")
	}
	p := core.NewProgram()
	nodes := p.DeclSet(4, "nodes")
	if _, err := New(Config{Prog: p, Primary: nodes, Assign: []int32{0, 0, 0, 0}, NParts: 0}); err == nil {
		t.Error("expected error for NParts 0")
	}
	if _, err := New(Config{Prog: p, Primary: nodes, Assign: []int32{0}, NParts: 1}); err == nil {
		t.Error("expected error for assignment length mismatch")
	}
	good := []int32{0, 0, 0, 0}
	if _, err := New(Config{Prog: p, Primary: nodes, Assign: good, NParts: 1, Depth: -1}); err == nil {
		t.Error("expected error for negative Depth")
	}
	if _, err := New(Config{Prog: p, Primary: nodes, Assign: good, NParts: 1, MaxChainLen: -3}); err == nil {
		t.Error("expected error for negative MaxChainLen")
	}
	if _, err := New(Config{Prog: p, Primary: nodes, Assign: []int32{0, 2, 0, 0}, NParts: 2}); err == nil {
		t.Error("expected error for assignment outside [0, NParts)")
	}
	if _, err := New(Config{Prog: p, Primary: nodes, Assign: []int32{0, -1, 0, 0}, NParts: 2}); err == nil {
		t.Error("expected error for negative assignment")
	}
}

func TestChainDepthPanic(t *testing.T) {
	m := mesh.Rotor(5, 4, 4)
	a := newMiniApp(m)
	a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
	b, err := New(Config{Prog: a.p, Primary: a.nodes,
		Assign: partition.Block(m.NNodes, 2), NParts: 2, Depth: 1, CA: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: chain needs depth 2, backend built with 1")
		}
	}()
	a.run(b, 1, true)
}

func TestChainConfigDisable(t *testing.T) {
	m := mesh.Rotor(6, 5, 4)
	cfg, err := chaincfg.ParseString("chain synth disable")
	if err != nil {
		t.Fatal(err)
	}
	a := newMiniApp(m)
	a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
	b, err := New(Config{Prog: a.p, Primary: a.nodes,
		Assign: partition.Block(m.NNodes, 3), NParts: 3, Depth: 2, MaxChainLen: 4,
		CA: true, Chains: cfg})
	if err != nil {
		t.Fatal(err)
	}
	a.run(b, 1, true)
	cs := b.Stats().Chains["synth"]
	if cs.CAExecutions != 0 {
		t.Fatalf("disabled chain ran with CA: %+v", cs)
	}
	want := seqResult(m, 1)
	got := map[string][]float64{"res": b.GatherDat(a.res), "flux": b.GatherDat(a.flux)}
	compareExact(t, "disabled", got, want)
}

// TestFloatBitReproducible: with inputs that are not exactly representable
// in binary (so any reordered accumulation flips low-order bits), every
// execution policy must still match the sequential reference bit for bit —
// data effects apply in the canonical global element order regardless of
// partitioning, chaining, halo depth or a mid-run policy switch. The
// integer-valued mini-app cannot see this class of bug; this is the float
// stress case behind the autotune and fault-injection checksum invariants.
func TestFloatBitReproducible(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	const steps, nparts = 4, 5
	build := func() *miniApp {
		a := newMiniApp(m)
		bw := a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
		for _, d := range []*core.Dat{a.pres, a.vol, a.ew, bw} {
			for i := range d.Data {
				d.Data[i] = d.Data[i]*0.1 + 0.01
			}
		}
		return a
	}
	sa := build()
	sa.run(core.NewSeq(), steps, false)
	want := map[string][]float64{"res": sa.res.Data, "flux": sa.flux.Data}
	for _, tc := range []struct {
		name                     string
		ca, chain, tune, overlap bool
	}{
		{"op2", false, false, false, false},
		{"op2-chained", false, true, false, false},
		{"ca", true, true, false, false},
		{"autotune", true, true, true, false},
		// Overlapped delivery moves only virtual time; the bit-identity
		// invariant must hold under overlapped delivery too, and
		// through the tuner's mid-run policy switches with overlapped
		// candidates in the mix.
		{"ca-overlap", true, true, false, true},
		{"autotune-overlap", true, true, true, true},
	} {
		// Every policy runs serially and through a forced multi-worker
		// pool: host-parallel dispatch must not perturb a single bit
		// either (kernels keep the canonical data-effect order; the pool
		// only changes which OS thread applies it).
		for _, workers := range []int{1, 4} {
			a := build()
			b, err := New(Config{
				Prog: a.p, Primary: a.nodes, Assign: partition.KWay(m.NodeAdjacency(), nparts),
				NParts: nparts, Depth: 2, MaxChainLen: 4, CA: tc.ca, AutoTune: tc.tune,
				Overlap: tc.overlap, Parallel: workers > 1, Machine: machine.ARCHER2(),
			})
			if err != nil {
				t.Fatal(err)
			}
			b.installPool(workers)
			a.run(b, steps, tc.chain)
			name := fmt.Sprintf("%s w=%d vs seq", tc.name, workers)
			compareExact(t, name, map[string][]float64{
				"res": b.GatherDat(a.res), "flux": b.GatherDat(a.flux)}, want)
			b.Close()
		}
	}
}
