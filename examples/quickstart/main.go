// Quickstart: the paper's Figures 1-3 end to end.
//
// Builds the small quadrilateral mesh of Figure 1 (nodes, edges, cells),
// declares the update/edge_flux two-loop chain of Figures 2-3 through the
// OP2-style API, and executes it three ways: sequentially, distributed with
// per-loop halo exchanges (standard OP2, Algorithm 1), and distributed with
// the communication-avoiding back-end (Algorithm 2). It prints the message
// counters of both distributed runs and verifies all three agree.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"op2ca/internal/cluster"
	"op2ca/internal/core"
	"op2ca/internal/mesh"
	"op2ca/internal/partition"
)

// update and edgeFlux are the elemental kernels of Figure 3.
var update = &core.Kernel{Name: "update", Flops: 8, MemBytes: 64,
	Fn: func(a [][]float64) {
		res1, res2, pres1, pres2 := a[0], a[1], a[2], a[3]
		res1[0] += pres1[0] - pres1[1]
		res1[1] += pres2[0] - pres2[1]
		res2[0] += pres2[1] - pres2[0]
		res2[1] += pres1[1] - pres1[0]
	}}

var edgeFlux = &core.Kernel{Name: "edge_flux", Flops: 16, MemBytes: 144,
	Fn: func(a [][]float64) {
		flux1, flux2, res1, res2, cw1, cw2 := a[0], a[1], a[2], a[3], a[4], a[5]
		flux1[0] += res1[0]*cw1[0] - res1[1]*cw1[1]
		flux1[1] += res2[1]*cw1[2] - res2[0]*cw1[3]
		flux2[0] += res2[1]*cw2[2] - res1[1]*cw2[3]
		flux2[1] += res1[0]*cw2[0] - res1[1]*cw2[1]
	}}

// program declares the Figure 3 sets, maps, dats and loops over the mesh.
func program(m *mesh.Quad2D) (*core.Program, func(b core.Backend, tmax int), *core.Dat) {
	p := core.NewProgram()
	nodes := p.DeclSet(m.NNodes, "nodes")
	edges := p.DeclSet(m.NEdges, "edges")
	cells := p.DeclSet(m.NCells, "cells")
	e2n := p.DeclMap(edges, nodes, 2, m.EdgeNodes, "e2n")
	e2c := p.DeclMap(edges, cells, 2, m.EdgeCells, "e2c")
	dres := p.DeclDat(nodes, 2, nil, "res")
	dpres := p.DeclDat(nodes, 2, nil, "pres")
	dcw := p.DeclDat(cells, 4, nil, "cw")
	dflux := p.DeclDat(nodes, 2, nil, "flux")
	for i := range dpres.Data {
		dpres.Data[i] = float64(i%7) - 3
	}
	for i := range dcw.Data {
		dcw.Data[i] = 0.25 * float64(i%5)
	}
	// The chain's loops are declared once, like the sets and dats, and
	// issued unchanged every time step.
	chain := []core.Loop{
		core.NewLoop(update, edges,
			core.ArgDat(dres, 0, e2n, core.Inc), core.ArgDat(dres, 1, e2n, core.Inc),
			core.ArgDat(dpres, 0, e2n, core.Read), core.ArgDat(dpres, 1, e2n, core.Read)),
		core.NewLoop(edgeFlux, edges,
			core.ArgDat(dflux, 0, e2n, core.Inc), core.ArgDat(dflux, 1, e2n, core.Inc),
			core.ArgDat(dres, 0, e2n, core.Read), core.ArgDat(dres, 1, e2n, core.Read),
			core.ArgDat(dcw, 0, e2c, core.Read), core.ArgDat(dcw, 1, e2c, core.Read)),
	}
	run := func(b core.Backend, tmax int) {
		for t := 0; t < tmax; t++ {
			b.ChainBegin("fig3")
			for _, l := range chain {
				b.ParLoop(l)
			}
			b.ChainEnd()
		}
	}
	return p, run, dflux
}

func main() {
	const tmax = 4
	m := mesh.NewQuad2D(24, 18)
	fmt.Printf("mesh: %d nodes, %d edges, %d cells (Figure 1 topology)\n",
		m.NNodes, m.NEdges, m.NCells)

	// Sequential reference.
	pSeq, runSeq, fluxSeq := program(m)
	runSeq(core.NewSeq(), tmax)
	_ = pSeq

	// Distributed runs, 4 ranks.
	results := map[string][]float64{}
	for _, caMode := range []bool{false, true} {
		p, run, flux := program(m)
		nodes := p.SetByName("nodes")
		b, err := cluster.New(cluster.Config{
			Prog: p, Primary: nodes,
			Assign: partition.KWay(quadAdjacency(m), 4), NParts: 4,
			Depth: 2, MaxChainLen: 2, CA: caMode,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		run(b, tmax)
		results[b.Name()] = b.GatherDat(flux)
		msgs, bytes := int64(0), int64(0)
		for _, ls := range b.Stats().Loops {
			msgs += ls.Msgs
			bytes += ls.Bytes
		}
		for _, cs := range b.Stats().Chains {
			msgs += cs.Msgs
			bytes += cs.Bytes
		}
		fmt.Printf("%-12s: %3d messages, %6d bytes, virtual time %.6fs\n",
			b.Name(), msgs, bytes, b.MaxClock())
	}

	for name, got := range results {
		for i := range fluxSeq.Data {
			if got[i] != fluxSeq.Data[i] {
				fmt.Printf("MISMATCH: %s flux[%d] = %g, want %g\n", name, i, got[i], fluxSeq.Data[i])
				os.Exit(1)
			}
		}
	}
	fmt.Println("all back-ends agree with the sequential reference, bit for bit")
}

// quadAdjacency builds the node adjacency of the quad mesh for partitioning.
func quadAdjacency(m *mesh.Quad2D) [][]int32 {
	adj := make([][]int32, m.NNodes)
	for e := 0; e < m.NEdges; e++ {
		a, b := m.EdgeNodes[2*e], m.EdgeNodes[2*e+1]
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	return adj
}
