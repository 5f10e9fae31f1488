package cluster

import (
	"testing"

	"op2ca/internal/core"
	"op2ca/internal/machine"
	"op2ca/internal/mesh"
	"op2ca/internal/partition"
)

// TestInterleavedChainsAndLoops exercises the paper's "key new feature":
// standard loops interspersed with selected CA loop-chains in one program.
// Two differently named chains and standalone loops alternate; results must
// match the sequential reference and both chains must run with CA.
func TestInterleavedChainsAndLoops(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	build := func() (*core.Program, []core.Loop) {
		p := core.NewProgram()
		nodes := p.DeclSet(m.NNodes, "nodes")
		edges := p.DeclSet(m.NEdges, "edges")
		e2n := p.DeclMap(edges, nodes, 2, m.EdgeNodes, "e2n")
		a := p.DeclDat(nodes, 1, nil, "a")
		bd := p.DeclDat(nodes, 1, nil, "b")
		cd := p.DeclDat(nodes, 1, nil, "c")
		for i := 0; i < nodes.Size; i++ {
			a.Data[i] = float64(i%7 - 3)
		}
		inc := func(dst, src *core.Dat) core.Loop {
			k := &core.Kernel{Name: "il_" + dst.Name + src.Name, Flops: 4, MemBytes: 64,
				Fn: func(v [][]float64) {
					v[0][0] += v[2][0]
					v[1][0] -= v[3][0]
				}}
			return core.NewLoop(k, edges,
				core.ArgDat(dst, 0, e2n, core.Inc), core.ArgDat(dst, 1, e2n, core.Inc),
				core.ArgDat(src, 0, e2n, core.Read), core.ArgDat(src, 1, e2n, core.Read))
		}
		scale := core.NewLoop(&core.Kernel{Name: "il_scale", Flops: 2, MemBytes: 32,
			Fn: func(v [][]float64) { v[0][0] *= 0.5 }}, nodes,
			core.ArgDatDirect(cd, core.ReadWrite))
		return p, []core.Loop{inc(bd, a), inc(cd, bd), scale, inc(a, cd), inc(bd, a)}
	}

	run := func(b core.Backend, loops []core.Loop) {
		for t := 0; t < 2; t++ {
			b.ChainBegin("first")
			b.ParLoop(loops[0])
			b.ParLoop(loops[1])
			b.ChainEnd()
			b.ParLoop(loops[2]) // standalone direct loop between chains
			b.ChainBegin("second")
			b.ParLoop(loops[3])
			b.ParLoop(loops[4])
			b.ChainEnd()
		}
	}

	pRef, refLoops := build()
	run(core.NewSeq(), refLoops)

	p, loops := build()
	b, err := New(Config{
		Prog: p, Primary: p.SetByName("nodes"),
		Assign: partition.KWay(m.NodeAdjacency(), 5), NParts: 5,
		Depth: 3, MaxChainLen: 2, CA: true, Machine: machine.ARCHER2(),
	})
	if err != nil {
		t.Fatal(err)
	}
	run(b, loops)

	for _, name := range []string{"a", "b", "c"} {
		got := b.GatherDat(p.DatByName(name))
		want := pRef.DatByName(name).Data
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s[%d] = %g, want %g", name, i, got[i], want[i])
			}
		}
	}
	for _, name := range []string{"first", "second"} {
		cs := b.Stats().Chains[name]
		if cs == nil || cs.CAExecutions != 2 {
			t.Errorf("chain %s: %+v, want 2 CA executions", name, cs)
		}
	}
	if ls := b.Stats().Loops["il_scale"]; ls == nil || ls.Executions != 2 {
		t.Error("standalone loop not recorded outside chains")
	}
}

// TestScatterDatRestoresValidity: after ScatterDat, halos are fresh and the
// next reading loop must not exchange.
func TestScatterDatRestoresValidity(t *testing.T) {
	m := mesh.Rotor(6, 5, 4)
	p := core.NewProgram()
	nodes := p.DeclSet(m.NNodes, "nodes")
	edges := p.DeclSet(m.NEdges, "edges")
	e2n := p.DeclMap(edges, nodes, 2, m.EdgeNodes, "e2n")
	x := p.DeclDat(nodes, 1, nil, "x")
	y := p.DeclDat(nodes, 1, nil, "y")
	b, err := New(Config{Prog: p, Primary: nodes,
		Assign: partition.Block(m.NNodes, 4), NParts: 4, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	dirty := core.NewLoop(&core.Kernel{Name: "sv_dirty", Fn: func(v [][]float64) {
		v[0][0] += 1
	}}, nodes, core.ArgDatDirect(x, core.ReadWrite))
	read := core.NewLoop(&core.Kernel{Name: "sv_read", Fn: func(v [][]float64) {
		v[0][0] += v[1][0]
	}}, edges, core.ArgDat(y, 0, e2n, core.Inc), core.ArgDat(x, 1, e2n, core.Read))

	b.ParLoop(dirty)
	fresh := make([]float64, m.NNodes)
	for i := range fresh {
		fresh[i] = float64(i)
	}
	b.ScatterDat(x, fresh)
	b.ParLoop(read)
	if msgs := b.Stats().Loops["sv_read"].Msgs; msgs != 0 {
		t.Fatalf("read after ScatterDat sent %d messages, want 0 (halos fresh)", msgs)
	}
	// And the data the loop consumed is the scattered data.
	want := make([]float64, m.NNodes)
	for e := 0; e < m.NEdges; e++ {
		want[m.EdgeNodes[2*e]] += fresh[m.EdgeNodes[2*e+1]]
	}
	got := b.GatherDat(y)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("y[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// TestLazyParallelComposition: lazy chain detection composed with parallel
// rank execution must equal the serial eager result.
func TestLazyParallelComposition(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	want := seqResult(m, 2)
	a := newMiniApp(m)
	a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
	b, err := New(Config{
		Prog: a.p, Primary: a.nodes,
		Assign: partition.KWay(m.NodeAdjacency(), 6), NParts: 6,
		Depth: 3, MaxChainLen: 5, CA: true, Lazy: true, Parallel: true,
		Machine: machine.Cirrus(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.run(b, 2, false)
	got := map[string][]float64{"res": b.GatherDat(a.res), "flux": b.GatherDat(a.flux)}
	compareExact(t, "lazy-parallel", got, want)
}
