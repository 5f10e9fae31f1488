// Lazy: automatic loop-chain detection — the paper's stated future work
// ("We will also move to further automate the code-gen process with
// lazy-evaluation").
//
// The application below issues plain op_par_loops with no chain
// annotations at all. In lazy mode the back-end queues loops until a
// synchronisation point (a global reduction, a data observation, or the
// queue capacity), inspects the queued sequence with Algorithm 3, and
// executes it as a communication-avoiding chain when the dependencies
// allow — falling back to per-loop execution otherwise. The example
// compares eager OP2, hand-chained CA, and lazy CA on the same program and
// verifies all three produce identical results.
//
//	go run ./examples/lazy
package main

import (
	"fmt"
	"os"

	"op2ca/internal/cluster"
	"op2ca/internal/core"
	"op2ca/internal/machine"
	"op2ca/internal/mesh"
	"op2ca/internal/partition"
)

var (
	kUpdate = &core.Kernel{Name: "update", Flops: 20, MemBytes: 240,
		Fn: func(a [][]float64) {
			res1, res2, pres1, pres2 := a[0], a[1], a[2], a[3]
			for i := range res1 {
				res1[i] += 0.05 * (pres1[i] - pres2[i])
				res2[i] += 0.05 * (pres2[i] - pres1[i])
			}
		}}
	kFlux = &core.Kernel{Name: "flux", Flops: 30, MemBytes: 280,
		Fn: func(a [][]float64) {
			flux1, flux2, res1, res2 := a[0], a[1], a[2], a[3]
			for i := range flux1 {
				f := 0.5 * (res1[i] + res2[i])
				flux1[i] -= f
				flux2[i] += f
			}
		}}
	kNorm = &core.Kernel{Name: "norm", Flops: 2, MemBytes: 48,
		Fn: func(a [][]float64) {
			for i := range a[0] {
				a[1][0] += a[0][i] * a[0][i]
			}
		}}
)

type app struct {
	p               *core.Program
	nodes, edges    *core.Set
	e2n             *core.Map
	res, pres, flux *core.Dat
}

func newApp(m *mesh.FV3D) *app {
	a := &app{p: core.NewProgram()}
	a.nodes = a.p.DeclSet(m.NNodes, "nodes")
	a.edges = a.p.DeclSet(m.NEdges, "edges")
	a.e2n = a.p.DeclMap(a.edges, a.nodes, 2, m.EdgeNodes, "e2n")
	a.res = a.p.DeclDat(a.nodes, 3, nil, "res")
	a.pres = a.p.DeclDat(a.nodes, 3, nil, "pres")
	a.flux = a.p.DeclDat(a.nodes, 3, nil, "flux")
	for i := range a.pres.Data {
		a.pres.Data[i] = float64(i%11 - 5)
	}
	return a
}

// run issues 3 iterations of [update, flux, update, flux, norm]: plain
// loops, no chain annotations. explicit=true wraps the four halo loops in
// a hand-written chain for the comparison run.
func (a *app) run(b core.Backend, explicit bool) float64 {
	var norm float64
	for t := 0; t < 3; t++ {
		if explicit {
			b.ChainBegin("hand")
		}
		for rep := 0; rep < 2; rep++ {
			b.ParLoop(core.NewLoop(kUpdate, a.edges,
				core.ArgDat(a.res, 0, a.e2n, core.Inc), core.ArgDat(a.res, 1, a.e2n, core.Inc),
				core.ArgDat(a.pres, 0, a.e2n, core.Read), core.ArgDat(a.pres, 1, a.e2n, core.Read)))
			b.ParLoop(core.NewLoop(kFlux, a.edges,
				core.ArgDat(a.flux, 0, a.e2n, core.Inc), core.ArgDat(a.flux, 1, a.e2n, core.Inc),
				core.ArgDat(a.res, 0, a.e2n, core.Read), core.ArgDat(a.res, 1, a.e2n, core.Read)))
		}
		if explicit {
			b.ChainEnd()
		}
		sum := []float64{0}
		b.ParLoop(core.NewLoop(kNorm, a.nodes,
			core.ArgDatDirect(a.flux, core.Read), core.ArgGbl(sum, core.Inc)))
		norm = sum[0]
	}
	return norm
}

func main() {
	m := mesh.RotorForNodes(24000)
	assign := partition.KWay(m.NodeAdjacency(), 32)
	fmt.Printf("lazy-evaluation demo: %d nodes, %d edges, 32 ranks\n\n", m.NNodes, m.NEdges)

	type mode struct {
		name     string
		cfg      cluster.Config
		explicit bool
	}
	modes := []mode{
		{"eager OP2", cluster.Config{}, false},
		{"hand-chained CA", cluster.Config{CA: true}, true},
		{"lazy CA", cluster.Config{CA: true, Lazy: true}, false},
	}
	var norms []float64
	for _, md := range modes {
		a := newApp(m)
		cfg := md.cfg
		cfg.Prog, cfg.Primary, cfg.Assign, cfg.NParts = a.p, a.nodes, assign, 32
		cfg.Depth, cfg.MaxChainLen = 2, 4
		cfg.Machine = machine.ARCHER2()
		cfg.Parallel = true
		b, err := cluster.New(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		norm := a.run(b, md.explicit)
		norms = append(norms, norm)
		msgs := int64(0)
		for _, ls := range b.Stats().Loops {
			msgs += ls.Msgs
		}
		for _, cs := range b.Stats().Chains {
			msgs += cs.Msgs
		}
		auto := ""
		if cs := b.Stats().Chains["lazy"]; cs != nil {
			auto = fmt.Sprintf("  (auto-detected %d CA chains)", cs.CAExecutions)
		}
		fmt.Printf("%-16s: norm %.9e, %4d messages, virtual time %.6fs%s\n",
			md.name, norm, msgs, b.MaxClock(), auto)
		b.Close() // a Parallel backend owns worker goroutines
	}

	for _, n := range norms[1:] {
		if n != norms[0] {
			fmt.Println("MISMATCH between execution modes")
			os.Exit(1)
		}
	}
	fmt.Println("\nall three execution modes agree bit for bit")
}
