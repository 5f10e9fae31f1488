package bench

import (
	"fmt"

	"op2ca/internal/cluster"
	"op2ca/internal/machine"
	"op2ca/internal/runspec"
)

// gpuRanksFor maps paper Cirrus nodes (4 GPUs each, one rank per GPU) to
// simulated ranks: GPU clusters are small enough to simulate at full rank
// count, capped for host-memory sanity.
func gpuRanksFor(paperNodes int) int {
	r := paperNodes * 4
	if r > 64 {
		r = 64
	}
	if r < 2 {
		r = 2
	}
	return r
}

// mgSnapshot captures the counters the Table 2 columns are computed from.
type mgSnapshot struct {
	LoopBytes  int64 `json:"loop_bytes"`
	LoopCore   int64 `json:"loop_core"`
	LoopHalo   int64 `json:"loop_halo"`
	ChainBytes int64 `json:"chain_bytes"`
	ChainCore  int64 `json:"chain_core"`
	ChainHalo  int64 `json:"chain_halo"`
}

func snapshotMG(b *cluster.Backend) mgSnapshot {
	var s mgSnapshot
	for _, name := range []string{"update", "edge_flux"} {
		if ls := b.Stats().Loops[name]; ls != nil {
			s.LoopBytes += ls.Bytes
			s.LoopCore += ls.CoreIters
			s.LoopHalo += ls.HaloIters
		}
	}
	if cs := b.Stats().Chains["synthetic"]; cs != nil {
		s.ChainBytes += cs.Bytes
		s.ChainCore += cs.CoreIters
		s.ChainHalo += cs.HaloIters
	}
	return s
}

// mgPoint is one measured (mesh, machine, nodes, loop-count) configuration.
type mgPoint struct {
	op2Time, caTime  float64
	op2Comm, caComm  float64 // Σ(2dpm¹) and p*m^r, bytes per rank
	op2Core, op2Halo float64 // per-rank per-iteration iteration counts
	caCore, caHalo   float64
	ranks            int
}

// runMGPoint measures one configuration under both back-ends.
func (c Config) runMGPoint(meshNodes, paperNodes, nchains int, mach *machine.Machine) mgPoint {
	ranks := c.ranksOn(paperNodes, mach)
	pt := mgPoint{ranks: ranks}
	// The partition is mgcfd's default k-way, as the paper uses ParMETIS
	// k-way for MG-CFD.
	spec := runspec.Spec{App: "mgcfd", MeshNodes: meshNodes, Levels: 3, NChains: nchains, Ranks: ranks}
	c.point(spec, mach, func(r *runspec.Run, p *runspec.Problem) {
		caMode := r.Spec.Backend == "ca"
		label := fmt.Sprintf("mgcfd %s mesh=%d paper-nodes=%d loops=%d ranks=%d",
			r.Spec.Backend, meshNodes, paperNodes, 2*nchains, ranks)
		var rctx mgResumeCtx
		a, start := c.openAttempt(r, p, &rctx)
		defer a.Close()
		b := a.CB
		if start == 0 {
			a.Init()
			// Warm-up (dirties halos, amortises nothing else); excluded from
			// the measurement like the paper's inspection phase.
			a.Step()
			rctx = mgResumeCtx{b.MaxClock(), snapshotMG(b)}
		}
		before, t0 := rctx.mgSnapshot, rctx.T0
		for it := start; it < c.Iters; it++ {
			a.Step()
			c.tick(b, label, it+1, rctx)
		}
		elapsed := (b.MaxClock() - t0) / float64(c.Iters)
		after := snapshotMG(b)
		perIter := float64(c.Iters)
		perRank := perIter * float64(ranks)

		if caMode {
			pt.caTime = elapsed
			cs := b.Stats().Chains["synthetic"]
			pt.caComm = float64(cs.MaxNeighbours) * float64(cs.MaxMsgBytes)
			pt.caCore = float64(after.ChainCore-before.ChainCore) / perRank
			pt.caHalo = float64(after.ChainHalo-before.ChainHalo) / perRank
		} else {
			pt.op2Time = elapsed
			// Σ(2dpm¹): measured per-loop maxima; the factor 2 (separate
			// eeh and enh messages) is already in the per-message count,
			// so use the byte total per rank per iteration.
			pt.op2Comm = float64(after.LoopBytes-before.LoopBytes) / perRank
			pt.op2Core = float64(after.LoopCore-before.LoopCore) / perRank
			pt.op2Halo = float64(after.LoopHalo-before.LoopHalo) / perRank
		}
		c.observe(label, b)
	})
	return pt
}

var (
	table2Nodes = []int{4, 16, 64}
	table2Loops = []int{2, 8, 32}
	fig10Nodes  = []int{1, 4, 16, 64}
	fig10Loops  = []int{2, 8, 32}
	fig11Nodes  = []int{1, 2, 4, 8, 16}
)

// Table2 regenerates the paper's Table 2: MG-CFD model components on
// ARCHER2 for the 8M- and 24M-class meshes.
func Table2(c Config) *Table {
	t := &Table{
		Title: "Table 2: MG-CFD on ARCHER2 - model components (per rank, per iteration)",
		Header: []string{"Mesh", "#Nodes", "#Loops", "OP2 comm B", "OP2 S^c", "OP2 S^1",
			"CA comm B", "CA S^c", "CA S^h", "Gain%"},
		Notes: []string{
			fmt.Sprintf("scaled meshes: 8M->%d nodes, 24M->%d nodes; ranks = paper nodes x 128 x %g",
				c.Nodes8M, c.Nodes24M, c.RankScale),
			"OP2 comm = measured per-rank halo bytes (the 2dpm^1 volume); CA comm = p*m^r of the grouped message",
		},
	}
	for _, mesh := range []struct {
		name  string
		nodes int
	}{{"8M", c.Nodes8M}, {"24M", c.Nodes24M}} {
		for _, nodes := range table2Nodes {
			for _, loops := range table2Loops {
				pt := c.runMGPoint(mesh.nodes, nodes, loops/2, machine.ARCHER2())
				t.Rows = append(t.Rows, []string{
					mesh.name, fmt.Sprint(nodes), fmt.Sprint(loops),
					f2(pt.op2Comm), f2(pt.op2Core), f2(pt.op2Halo),
					f2(pt.caComm), f2(pt.caCore), f2(pt.caHalo),
					f2(gain(pt.op2Time, pt.caTime)),
				})
			}
		}
	}
	return t
}

// figMG regenerates Figure 10 (ARCHER2) or Figure 11 (Cirrus): OP2 vs CA
// main-loop runtimes over node counts and loop counts, both meshes.
func figMG(c Config, mach *machine.Machine, nodes, loops []int, title string) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"Mesh", "#Nodes", "#Ranks", "#Loops", "OP2 t(s)", "CA t(s)", "Gain%"},
		Notes: []string{
			"virtual times per main-loop iteration under the machine model; inspection excluded (amortised)",
		},
	}
	for _, mesh := range []struct {
		name string
		n    int
	}{{"8M", c.Nodes8M}, {"24M", c.Nodes24M}} {
		for _, nn := range nodes {
			for _, nl := range loops {
				pt := c.runMGPoint(mesh.n, nn, nl/2, mach)
				t.Rows = append(t.Rows, []string{
					mesh.name, fmt.Sprint(nn), fmt.Sprint(pt.ranks), fmt.Sprint(nl),
					f6(pt.op2Time), f6(pt.caTime), f2(gain(pt.op2Time, pt.caTime)),
				})
			}
		}
	}
	return t
}

// Fig10 regenerates Figure 10: MG-CFD CA performance on ARCHER2.
func Fig10(c Config) *Table {
	return figMG(c, machine.ARCHER2(), fig10Nodes, fig10Loops,
		"Figure 10: MG-CFD synthetic loop-chains on ARCHER2 (8M and 24M class meshes)")
}

// Fig11 regenerates Figure 11: MG-CFD CA performance on the Cirrus GPU
// cluster (4 V100 per node, one rank per GPU).
func Fig11(c Config) *Table {
	return figMG(c, machine.Cirrus(), fig11Nodes, fig10Loops,
		"Figure 11: MG-CFD synthetic loop-chains on Cirrus V100 cluster (8M and 24M class meshes)")
}
