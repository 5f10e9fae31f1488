package bench

import (
	"fmt"
	"strings"

	"op2ca/internal/ca"
	"op2ca/internal/cluster"
	"op2ca/internal/hydra"
	"op2ca/internal/machine"
	"op2ca/internal/mesh"
	"op2ca/internal/partition"
)

// hydraMeas is one chain's measurement under one back-end: virtual time and
// per-rank communication/iteration counters, normalised per execution.
type hydraMeas struct {
	time  float64
	comm  float64 // bytes sent per rank per execution
	pmr   float64 // p*m^r (CA only)
	core  float64
	halo  float64
	execs int
}

// hydraPoint holds all chains' measurements for one configuration.
type hydraPoint struct {
	ranks    int
	op2, cab map[string]hydraMeas
}

func (c Config) runHydraPoint(meshNodes, paperNodes int, mach *machine.Machine) hydraPoint {
	var ranks int
	if mach.GPU != nil {
		ranks = gpuRanksFor(paperNodes)
	} else {
		ranks = c.ranksFor(paperNodes, mach.RanksPerNode)
	}
	m := mesh.RotorForNodes(meshNodes)
	assign := partition.RIB(m.Coords, 3, ranks) // Hydra's default partitioner

	pt := hydraPoint{ranks: ranks, op2: map[string]hydraMeas{}, cab: map[string]hydraMeas{}}
	run := func(caMode bool) {
		mode := "op2"
		if caMode {
			mode = "ca"
		}
		label := fmt.Sprintf("hydra %s mesh=%d paper-nodes=%d ranks=%d (%s)",
			mode, meshNodes, paperNodes, ranks, mach.Name)
		app := hydra.New(m)
		ccfg := cluster.Config{
			Prog: app.Prog, Primary: app.Nodes, Assign: assign, NParts: ranks,
			Depth: 2, MaxChainLen: 6, CA: caMode, Chains: hydra.MustPaperConfig(),
			Machine: mach, Parallel: c.Parallel, Tracer: c.Tracer, Faults: c.Faults,
			AutoTune: c.AutoTune && caMode, Overlap: c.Overlap && caMode,
		}
		var rctx hydraResumeCtx
		b, start, fresh := c.open(label, ccfg, &rctx)
		defer b.Close()
		before := map[string]hydraMeas{}
		if fresh {
			// Setup chains (weight, period) execute once; measure them
			// cumulatively. Per-iteration chains are measured after a warm-up
			// iteration, so first-execution clean halos do not skew the
			// communication counters.
			app.RunSetup(b, true)
			app.RunIteration(b, true) // warm-up
			rctx.Before = map[string]hydraMeasJSON{}
			for _, name := range hydra.ChainNames() {
				before[name] = rawChain(b, name)
				rctx.Before[name] = measJSONOf(before[name])
			}
		} else {
			for name, mj := range rctx.Before {
				before[name] = mj.meas()
			}
		}
		for it := start; it < c.Iters; it++ {
			app.RunIteration(b, true)
			c.tick(b, label, it+1, rctx)
		}
		dst := pt.op2
		if caMode {
			dst = pt.cab
		}
		for _, name := range hydra.ChainNames() {
			after := rawChain(b, name)
			execs := after.execs - before[name].execs
			if execs == 0 { // setup chain: single execution, cumulative
				after.execs = rawChainExecs(b, name)
				dst[name] = normalise(after, after.execs, ranks)
				continue
			}
			delta := hydraMeas{
				time: after.time - before[name].time,
				comm: after.comm - before[name].comm,
				pmr:  after.pmr,
				core: after.core - before[name].core,
				halo: after.halo - before[name].halo,
			}
			dst[name] = normalise(delta, execs, ranks)
		}
		c.observe(label, b)
	}
	run(false)
	run(true)
	return pt
}

// rawChain reads one chain's cumulative counters (CA stats or, for per-loop
// fallback, the chain-prefixed loop stats).
func rawChain(b *cluster.Backend, name string) hydraMeas {
	cs := b.Stats().Chains[name]
	if cs == nil {
		return hydraMeas{}
	}
	meas := hydraMeas{execs: cs.Executions, time: cs.Time}
	if cs.CAExecutions > 0 {
		meas.comm = float64(cs.Bytes)
		meas.pmr = float64(cs.MaxNeighbours) * float64(cs.MaxMsgBytes)
		meas.core = float64(cs.CoreIters)
		meas.halo = float64(cs.HaloIters)
		return meas
	}
	prefix := name + "/"
	for key, ls := range b.Stats().Loops {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		meas.comm += float64(ls.Bytes)
		meas.core += float64(ls.CoreIters)
		meas.halo += float64(ls.HaloIters)
	}
	return meas
}

func rawChainExecs(b *cluster.Backend, name string) int {
	if cs := b.Stats().Chains[name]; cs != nil {
		return cs.Executions
	}
	return 0
}

// normalise converts cumulative counters to per-execution, per-rank values.
func normalise(m hydraMeas, execs, ranks int) hydraMeas {
	if execs <= 0 {
		return hydraMeas{}
	}
	perExec := float64(execs)
	perRank := perExec * float64(ranks)
	return hydraMeas{
		time:  m.time / perExec,
		comm:  m.comm / perRank,
		pmr:   m.pmr,
		core:  m.core / perRank,
		halo:  m.halo / perRank,
		execs: execs,
	}
}

var (
	fig12Nodes  = []int{4, 16, 64, 128}
	fig13Nodes  = []int{1, 2, 4, 8, 16}
	table5Nodes = []int{4, 16, 64}
	// table5Chains matches the paper's Table 5 rows.
	table5Chains = []string{"weight", "period", "vflux", "gradl", "jacob"}
)

// figHydra renders Figure 12 (ARCHER2) or Figure 13 (Cirrus): per-chain
// OP2 vs CA times over node counts for both mesh classes.
func figHydra(c Config, mach *machine.Machine, nodes []int, title string) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"Mesh", "Chain", "#Nodes", "#Ranks", "OP2 t(s)", "CA t(s)", "Gain%"},
		Notes: []string{
			"virtual time per chain execution (setup chains execute once; others once per iteration)",
			"CA runs the paper's configured halo extensions (Tables 3-4)",
		},
	}
	for _, mesh := range []struct {
		name string
		n    int
	}{{"8M", c.Nodes8M}, {"24M", c.Nodes24M}} {
		for _, nn := range nodes {
			pt := c.runHydraPoint(mesh.n, nn, mach)
			for _, chain := range hydra.ChainNames() {
				o, a := pt.op2[chain], pt.cab[chain]
				t.Rows = append(t.Rows, []string{
					mesh.name, chain, fmt.Sprint(nn), fmt.Sprint(pt.ranks),
					f6(o.time), f6(a.time), f2(gain(o.time, a.time)),
				})
			}
		}
	}
	return t
}

// Fig12 regenerates Figure 12: Hydra chains on ARCHER2.
func Fig12(c Config) *Table {
	return figHydra(c, machine.ARCHER2(), fig12Nodes,
		"Figure 12: Hydra loop-chains on ARCHER2 (8M and 24M class meshes)")
}

// Fig13 regenerates Figure 13: Hydra chains on Cirrus.
func Fig13(c Config) *Table {
	return figHydra(c, machine.Cirrus(), fig13Nodes,
		"Figure 13: Hydra loop-chains on Cirrus V100 cluster (8M and 24M class meshes)")
}

// Table5 regenerates the paper's Table 5: Hydra model components on the
// 8M-class mesh on ARCHER2.
func Table5(c Config) *Table {
	t := &Table{
		Title: "Table 5: Hydra loop-chains on ARCHER2, 8M-class mesh - model components",
		Header: []string{"Chain", "#Nodes", "OP2 comm B", "OP2 S^c", "OP2 S^1",
			"CA p*m^r", "CA S^c", "CA S^h", "LC Gain%", "CommReduc%", "CompInc%"},
		Notes: []string{
			"per rank, per chain execution; comm = measured halo bytes sent",
		},
	}
	for _, nn := range table5Nodes {
		pt := c.runHydraPoint(c.Nodes8M, nn, machine.ARCHER2())
		for _, chain := range table5Chains {
			o, a := pt.op2[chain], pt.cab[chain]
			commRed := 0.0
			if o.comm > 0 {
				commRed = (o.comm - a.comm) / o.comm * 100
			}
			compInc := 0.0
			if tot := o.core + o.halo; tot > 0 {
				compInc = (a.core + a.halo - tot) / tot * 100
			}
			t.Rows = append(t.Rows, []string{
				chain, fmt.Sprint(nn),
				f2(o.comm), f2(o.core), f2(o.halo),
				f2(a.pmr), f2(a.core), f2(a.halo),
				f2(gain(o.time, a.time)), f2(commRed), f2(compInc),
			})
		}
	}
	return t
}

// Table3and4 regenerates Tables 3 and 4: the six chains' per-loop halo
// extensions, as the inspector computes them under the paper configuration.
func Table3and4(c Config) *Table {
	t := &Table{
		Title:  "Tables 3 and 4: Hydra loop-chain halo extensions (HE_l)",
		Header: []string{"Chain", "Loop", "Iteration set", "HE_l (Alg 3)", "HE_l (configured)"},
		Notes: []string{
			"configured values come from the paper's CA configuration file (Section 3.4)",
		},
	}
	app := hydra.New(mesh.Rotor(6, 5, 4))
	cfg := hydra.MustPaperConfig()
	for _, chain := range hydra.ChainNames() {
		loops := app.ChainLoops(chain)
		alg3 := ca.CalcHaloLayers(loops)
		he := alg3
		if cc := cfg.Get(chain); cc != nil {
			over, err := cc.HEOverrides(len(loops))
			if err != nil {
				panic("bench: " + err.Error())
			}
			plan, err := ca.Inspect(chain, loops, over)
			if err != nil {
				panic("bench: " + err.Error())
			}
			he = plan.HE
		}
		for i, l := range loops {
			t.Rows = append(t.Rows, []string{
				chain, l.Kernel.Name, l.Set.Name,
				fmt.Sprint(alg3[i]), fmt.Sprint(he[i]),
			})
		}
	}
	return t
}

// Experiments maps experiment names to their runners, for the CLI and
// benchmarks.
func Experiments() map[string]func(Config) *Table {
	return map[string]func(Config) *Table{
		"table2":              Table2,
		"fig10":               Fig10,
		"fig11":               Fig11,
		"table3-4":            Table3and4,
		"fig12":               Fig12,
		"fig13":               Fig13,
		"table5":              Table5,
		"ablation-depth":      AblationDepth,
		"ablation-group":      AblationGrouping,
		"ablation-partition":  AblationPartitioner,
		"ablation-gpu-launch": AblationGPULaunch,
		"ablation-gpudirect":  AblationGPUDirect,
		"halo-profile":        HaloProfile,
		"overlap":             OverlapStudy,
	}
}

// ExperimentOrder lists experiment names in paper order, ablations last.
func ExperimentOrder() []string {
	return []string{"table2", "fig10", "fig11", "table3-4", "fig12", "fig13", "table5",
		"ablation-depth", "ablation-group", "ablation-partition", "ablation-gpu-launch", "ablation-gpudirect", "halo-profile",
		"overlap"}
}
