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
