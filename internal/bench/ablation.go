package bench

import (
	"fmt"

	"op2ca/internal/chaincfg"
	"op2ca/internal/checkpoint"
	"op2ca/internal/cluster"
	"op2ca/internal/halo"
	"op2ca/internal/hydra"
	"op2ca/internal/machine"
	"op2ca/internal/mesh"
	"op2ca/internal/partition"
	"op2ca/internal/runspec"
)

// Ablations isolate the design choices DESIGN.md calls out: halo depth
// (redundant compute vs communication), message grouping (Figure 8),
// partitioner choice (neighbour counts), and GPU launch overhead. What an
// ablation pins that no run description can say — depth, grouping,
// GPUDirect, a modified machine — it sets on the resolved Run.

// synthetic describes the run the synthetic-chain ablations study: the
// 8M-class mesh, single level, nchains chain pairs per iteration, under the
// named backend.
func (c Config) synthetic(backend string, nchains, ranks int) runspec.Spec {
	return runspec.Spec{App: "mgcfd", MeshNodes: c.Nodes8M, Levels: 1, NChains: nchains,
		Ranks: ranks, Backend: backend, Iters: c.Iters + 1}
}

// runSyntheticOnce runs the MG-CFD synthetic chain alone — r's backend over
// p's declared app, but stepping the chain without the multigrid cycle, a
// main loop no run description has — and returns the per-iteration virtual
// time. variant, when not "", ends the run's label: what an ablation varies
// that the rest of the label does not say.
func (c Config) runSyntheticOnce(r *runspec.Run, p *runspec.Problem, variant string) float64 {
	nchains, chained := r.Spec.NChains, r.Spec.Backend == "ca"
	app, syn := p.Instance.MGCFD()
	label := fmt.Sprintf("synthetic ca=%v depth=%d grouped=%v loops=%d ranks=%d",
		chained, r.Depth, !r.NoGroupedMsgs, 2*nchains, r.Spec.Ranks)
	if variant != "" {
		label += " " + variant
	}
	var rctx synResumeCtx
	b, start := c.open(&rctx, func(st *checkpoint.State) (*cluster.Backend, error) {
		return r.Open(p, app.Prog, app.Primary, 2*nchains, st)
	})
	defer b.Close()
	if start == 0 {
		app.Init(b)
		syn.Run(b, nchains, chained) // warm-up
		rctx.T0 = b.MaxClock()
	}
	for it := start; it < c.Iters; it++ {
		syn.Run(b, nchains, chained)
		c.tick(b, label, it+1, rctx)
	}
	c.observe(label, b)
	return (b.MaxClock() - rctx.T0) / float64(c.Iters)
}

// AblationDepth sweeps the configured halo extension of the synthetic chain
// above the required r=2: deeper halos buy nothing here and cost redundant
// computation plus message volume — the paper's Section 3.2 trade-off made
// visible.
func AblationDepth(c Config) *Table {
	t := &Table{
		Title:  "Ablation: halo depth vs runtime (MG-CFD synthetic chain, 16 loops, ARCHER2)",
		Header: []string{"Configured HE", "CA t(s)", "vs OP2 gain%"},
		Notes: []string{
			"the chain needs r = 2; deeper extensions add redundant computation and bytes for no dependency benefit",
		},
	}
	ranks := c.ranksFor(64, 128)
	const nchains = 8
	op2 := c.resolve(c.synthetic("op2", nchains, ranks), archer())
	p := problem(op2)
	defer p.Release()
	op2Time := c.runSyntheticOnce(op2, p, "")

	for _, he := range []int{2, 3, 4} {
		r := c.resolve(c.synthetic("ca", nchains, ranks), archer())
		r.Depth = he
		if he > 2 {
			// The inspector picks r = 2 naturally; pin every loop deeper
			// to expose the cost of excess redundancy.
			spec := "chain synthetic\n"
			for i := 0; i < 2*nchains; i++ {
				spec += fmt.Sprintf("loop l%d he=%d\n", i, he)
			}
			chains, err := chaincfg.ParseString(spec)
			if err != nil {
				panic("bench: " + err.Error())
			}
			r.Chains = chains
		}
		caTime := c.runSyntheticOnce(r, p, "")
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(he), f6(caTime), f2(gain(op2Time, caTime)),
		})
	}
	return t
}

// AblationGrouping compares the CA chain with grouped messages (Figure 8)
// against CA with per-dat messages: same redundant computation and byte
// volume, different message counts.
func AblationGrouping(c Config) *Table {
	t := &Table{
		Title:  "Ablation: grouped vs per-dat chain messages (MG-CFD synthetic chain, ARCHER2)",
		Header: []string{"#Loops", "OP2 t(s)", "CA per-dat t(s)", "CA grouped t(s)", "grouped gain% over per-dat"},
		Notes: []string{
			"per-dat CA still eliminates per-loop exchanges; grouping additionally collapses messages per neighbour",
		},
	}
	ranks := c.ranksFor(64, 128)
	var p *runspec.Problem // does not depend on the loop count
	for _, nchains := range []int{2, 8} {
		op2 := c.resolve(c.synthetic("op2", nchains, ranks), archer())
		if p == nil {
			p = problem(op2)
			defer p.Release()
		}
		op2Time := c.runSyntheticOnce(op2, p, "")
		perDat := c.resolve(c.synthetic("ca", nchains, ranks), archer())
		perDat.NoGroupedMsgs = true
		perDatTime := c.runSyntheticOnce(perDat, p, "")
		groupedTime := c.runSyntheticOnce(c.resolve(c.synthetic("ca", nchains, ranks), archer()), p, "")
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(2 * nchains), f6(op2Time), f6(perDatTime), f6(groupedTime),
			f2(gain(perDatTime, groupedTime)),
		})
	}
	return t
}

// AblationPartitioner runs the synthetic chain under the available
// partitioners: partition quality (edge cut, neighbour count) drives both
// back-ends' communication, and bad partitions amplify CA's redundant halo
// computation.
func AblationPartitioner(c Config) *Table {
	t := &Table{
		Title:  "Ablation: partitioner choice (MG-CFD synthetic chain, 16 loops, ARCHER2)",
		Header: []string{"Partitioner", "EdgeCut", "MaxNeigh", "Imbal", "OP2 t(s)", "CA t(s)", "Gain%"},
	}
	ranks := c.ranksFor(64, 128)
	const nchains = 8
	var p *runspec.Problem
	var adj [][]int32
	for _, name := range []string{"kway", "rib", "rcb", "block", "random"} {
		spec := c.synthetic("op2", nchains, ranks)
		if name == "random" {
			// No run description names it: the same mesh under an explicit
			// assignment.
			random := *p
			random.Assign = partition.Random(p.Mesh.NNodes, ranks, 7)
			p = &random
		} else {
			spec.Partitioner = name
			p = problem(c.resolve(spec, archer()))
		}
		if adj == nil {
			adj = p.Mesh.NodeAdjacency()
		}
		q := partition.Evaluate(adj, p.Assign, ranks)
		variant := "partitioner=" + name
		op2Time := c.runSyntheticOnce(c.resolve(spec, archer()), p, variant)
		spec.Backend = "ca"
		caTime := c.runSyntheticOnce(c.resolve(spec, archer()), p, variant)
		p.Release()
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprint(q.EdgeCut), fmt.Sprint(q.MaxNeighbours),
			f2(q.Imbalance), f6(op2Time), f6(caTime), f2(gain(op2Time, caTime)),
		})
	}
	return t
}

// AblationGPUDirect compares the paper's staged PCIe exchange pipeline
// against GPUDirect transfers (Section 3.3: the authors chose staging
// because GPUDirect "in many cases did not run simultaneously with the
// computing kernels"). The vflux-heavy Hydra iteration reproduces that
// choice; see cluster.TestGPUDirectSlowerThanStaging for the light-kernel
// counterexample.
func AblationGPUDirect(c Config) *Table {
	t := &Table{
		Title:  "Ablation: staged PCIe pipeline vs GPUDirect (Hydra iteration, Cirrus)",
		Header: []string{"#Ranks", "Staged CA t(s)", "GPUDirect CA t(s)", "staging gain%"},
		Notes: []string{
			"GPUDirect removes PCIe staging but does not overlap with kernels (the paper's measurement)",
			"staging wins when per-GPU kernels are heavy enough to hide the transfers; at very small per-rank loads GPUDirect's saved latencies win instead",
		},
	}
	for _, ranks := range []int{2, 4} {
		var p *runspec.Problem
		run := func(direct bool) float64 {
			label := fmt.Sprintf("hydra ca gpudirect=%v ranks=%d (Cirrus)", direct, ranks)
			r := c.resolve(runspec.Spec{App: "hydra", MeshNodes: c.Nodes8M, Ranks: ranks,
				Backend: "ca", Iters: c.Iters + 1}, cirrus())
			r.GPUDirect = direct
			if p == nil {
				p = problem(r)
			}
			a, base := c.measureHydra(r, p, label)
			defer a.Close()
			c.observe(label, a.CB)
			return (a.CB.MaxClock() - base.T0) / float64(c.Iters)
		}
		staged := run(false)
		direct := run(true)
		p.Release()
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(ranks), f6(staged), f6(direct), f2(gain(direct, staged)),
		})
	}
	return t
}

// AblationGPULaunch sweeps the GPU kernel-launch overhead. Both back-ends
// launch two kernels per loop (core and halo phases), so the overhead is a
// common cost: growing it dilutes the relative CA gain, isolating how much
// of the GPU win comes from message/staging reduction rather than launches.
func AblationGPULaunch(c Config) *Table {
	t := &Table{
		Title:  "Ablation: GPU launch overhead sensitivity (MG-CFD synthetic chain, 16 loops, Cirrus)",
		Header: []string{"Launch overhead", "OP2 t(s)", "CA t(s)", "Gain%"},
		Notes: []string{
			"launch overhead is paid equally by both back-ends (two launches per loop); it dilutes the relative gain",
		},
	}
	ranks := gpuRanksFor(8)
	const nchains = 8
	var p *runspec.Problem // does not depend on the machine
	for _, overhead := range []float64{0, 8e-6, 32e-6} {
		mach := machine.Cirrus()
		mach.GPU.LaunchOverhead = overhead
		op2 := c.resolve(c.synthetic("op2", nchains, ranks), mach)
		if p == nil {
			p = problem(op2)
			defer p.Release()
		}
		launch := fmt.Sprintf("%.0fus", overhead*1e6)
		op2Time := c.runSyntheticOnce(op2, p, "launch="+launch)
		caTime := c.runSyntheticOnce(c.resolve(c.synthetic("ca", nchains, ranks), mach), p, "launch="+launch)
		t.Rows = append(t.Rows, []string{
			launch, f6(op2Time), f6(caTime),
			f2(gain(op2Time, caTime)),
		})
	}
	return t
}

// HaloProfile reports the halo-shell structure of the rotor mesh under the
// strong-scaling rank counts: the Section 3.2 determinants (core sizes,
// shell sizes, shell growth ratios) that decide whether a chain profits
// from CA, measured rather than modelled.
func HaloProfile(c Config) *Table {
	t := &Table{
		Title: "Halo profile: shell sizes per rank (rotor mesh, depth 3)",
		Header: []string{"#Ranks", "Set", "Owned", "Core", "Exec d1", "Exec d2", "Exec d3",
			"Nonexec d1", "Nonexec d2", "Nonexec d3", "d2/d1 growth"},
		Notes: []string{
			"per-rank averages; exec shells are redundantly computed by CA chains, the growth ratio is the per-layer cost",
		},
	}
	m := mesh.RotorForNodes(c.Nodes8M)
	app := hydra.New(m)
	for _, paperNodes := range []int{4, 16, 64} {
		ranks := c.ranksFor(paperNodes, 128)
		assign := partition.RIB(m.Coords, 3, ranks)
		owners, err := halo.DeriveOwnership(app.Prog, app.Nodes, assign)
		if err != nil {
			panic("bench: " + err.Error())
		}
		layouts := halo.Build(app.Prog, owners, ranks, 3, 6)
		for _, p := range halo.Profile(app.Prog, layouts) {
			if p.Set.Name != "nodes" && p.Set.Name != "edges" && p.Set.Name != "pedges" {
				continue
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(ranks), p.Set.Name, f2(p.AvgOwned), f2(p.AvgCore),
				f2(p.AvgExec[0]), f2(p.AvgExec[1]), f2(p.AvgExec[2]),
				f2(p.AvgNonexec[0]), f2(p.AvgNonexec[1]), f2(p.AvgNonexec[2]),
				f2(p.GrowthRatio(2)),
			})
		}
	}
	return t
}
