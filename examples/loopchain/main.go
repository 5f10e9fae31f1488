// Loopchain: the paper's Section 4.1.1 synthetic loop-chain study.
//
// Builds MG-CFD over a rotor mesh, attaches the extendable synthetic chain
// (pairs of update/edge_flux loops with the increment-then-indirect-read
// pattern), and sweeps the chain length under both back-ends, printing the
// measured virtual times, message counters, and the analytic model's
// prediction (Equations (1)-(3)) side by side.
//
//	go run ./examples/loopchain [-ranks 24] [-mesh-nodes 30000]
package main

import (
	"flag"
	"fmt"
	"os"

	"op2ca/internal/cluster"
	"op2ca/internal/machine"
	"op2ca/internal/mesh"
	"op2ca/internal/mgcfd"
	"op2ca/internal/model"
	"op2ca/internal/partition"
)

func main() {
	var (
		meshNodes = flag.Int("mesh-nodes", 24000, "approximate mesh node count")
		ranks     = flag.Int("ranks", 48, "simulated MPI ranks")
		iters     = flag.Int("iters", 3, "measured iterations per configuration")
	)
	flag.Parse()

	m := mesh.RotorForNodes(*meshNodes)
	h := mesh.NewHierarchy(m, 1, true) // chain study: no multigrid noise
	assign := partition.KWay(m.NodeAdjacency(), *ranks)
	mach := machine.ARCHER2()
	fmt.Printf("synthetic loop-chain study: %d nodes, %d edges, %d ranks, %s model\n\n",
		m.NNodes, m.NEdges, *ranks, mach.Name)
	fmt.Printf("%-7s  %-12s  %-12s  %-8s  %-10s  %-10s\n",
		"#loops", "OP2 t(s)", "CA t(s)", "gain%", "OP2 msgs", "CA msgs")

	for _, nchains := range []int{1, 2, 4, 8, 16} {
		var times [2]float64
		var msgs [2]int64
		for mode, caMode := range []bool{false, true} {
			app := mgcfd.New(h)
			syn := mgcfd.NewSynthetic(app)
			b, err := cluster.New(cluster.Config{
				Prog: app.Prog, Primary: app.Primary, Assign: assign, NParts: *ranks,
				Depth: 2, MaxChainLen: 2 * nchains, CA: caMode,
				Machine: mach, Parallel: true,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			app.Init(b)
			syn.Run(b, nchains, caMode) // warm-up: dirty the halos
			t0 := b.MaxClock()
			for it := 0; it < *iters; it++ {
				syn.Run(b, nchains, caMode)
			}
			times[mode] = (b.MaxClock() - t0) / float64(*iters)
			for _, ls := range b.Stats().Loops {
				msgs[mode] += ls.Msgs
			}
			for _, cs := range b.Stats().Chains {
				msgs[mode] += cs.Msgs
			}
			b.Close() // a Parallel backend owns worker goroutines
		}
		gain := (times[0] - times[1]) / times[0] * 100
		fmt.Printf("%-7d  %-12.6f  %-12.6f  %-8.2f  %-10d  %-10d\n",
			2*nchains, times[0], times[1], gain, msgs[0], msgs[1])
	}

	// Analytic model read-out for the largest configuration, using round
	// numbers in the spirit of Section 3.2.
	fmt.Println("\nanalytic model (Equations (1)-(3)) for the 32-loop chain:")
	edgesPerRank := float64(m.NEdges) / float64(*ranks)
	g := 12e-9 // per-iteration time of the synthetic kernels on ARCHER2
	op2Loop := model.LoopParams{
		G: g, CoreIters: 0.85 * edgesPerRank, HaloIters: 0.15 * edgesPerRank,
		NDats: 1, Neighbours: 8, MsgBytes: 4096,
	}
	op2 := make([]model.LoopParams, 32)
	ca := model.ChainParams{Neighbours: 8, GroupedBytes: 4 * 4096}
	for i := range op2 {
		op2[i] = op2Loop
		ca.Loops = append(ca.Loops, model.LoopParams{
			G: g, CoreIters: 0.6 * edgesPerRank, HaloIters: 0.55 * edgesPerRank,
		})
	}
	net := model.Net{L: mach.Latency, B: mach.Bandwidth, C: 4 * 4096 / mach.PackRate}
	comp := model.Compare(op2, ca, net)
	fmt.Printf("  modelled gain %.1f%%, comm reduction %.1f%%, computation increase %.1f%%\n",
		comp.GainPct, comp.CommReducPct, comp.CompIncPct)
	fmt.Printf("  break-even grouped message size: %.0f bytes per neighbour\n",
		model.BreakEvenNeighbourBytes(op2, ca, net))
}
