package bench

import (
	"fmt"
	"strings"

	"op2ca/internal/ca"
	"op2ca/internal/cluster"
	"op2ca/internal/hydra"
	"op2ca/internal/machine"
	"op2ca/internal/mesh"
	"op2ca/internal/runspec"
)

// hydraMeas is one chain's measurement under one back-end: virtual time and
// per-rank communication/iteration counters, normalised per execution.
type hydraMeas struct {
	Time  float64 `json:"time"`
	Comm  float64 `json:"comm"` // bytes sent per rank per execution
	Pmr   float64 `json:"pmr"`  // p*m^r (CA only)
	Core  float64 `json:"core"`
	Halo  float64 `json:"halo"`
	Execs int     `json:"execs"`
}

// hydraPoint holds all chains' measurements for one configuration.
type hydraPoint struct {
	ranks    int
	op2, cab map[string]hydraMeas
}

func (c Config) runHydraPoint(meshNodes, paperNodes int, mach *machine.Machine) hydraPoint {
	ranks := c.ranksOn(paperNodes, mach)
	pt := hydraPoint{ranks: ranks, op2: map[string]hydraMeas{}, cab: map[string]hydraMeas{}}
	// The partition is RIB, Hydra's default.
	spec := runspec.Spec{App: "hydra", MeshNodes: meshNodes, Ranks: ranks}
	c.point(spec, mach, func(r *runspec.Run, p *runspec.Problem) {
		caMode := r.Spec.Backend == "ca"
		label := fmt.Sprintf("hydra %s mesh=%d paper-nodes=%d ranks=%d (%s)",
			r.Spec.Backend, meshNodes, paperNodes, ranks, mach.Name)
		// rawChain reads per-chain rows under both backends.
		r.Demarcate = true
		a, base := c.measureHydra(r, p, label)
		defer a.Close()
		b := a.CB
		before := base.Before
		dst := pt.op2
		if caMode {
			dst = pt.cab
		}
		for _, name := range hydra.ChainNames() {
			after := rawChain(b, name)
			execs := after.Execs - before[name].Execs
			if execs == 0 { // setup chain: single execution, cumulative
				dst[name] = normalise(after, after.Execs, ranks)
				continue
			}
			delta := hydraMeas{
				Time: after.Time - before[name].Time,
				Comm: after.Comm - before[name].Comm,
				Pmr:  after.Pmr,
				Core: after.Core - before[name].Core,
				Halo: after.Halo - before[name].Halo,
			}
			dst[name] = normalise(delta, execs, ranks)
		}
		c.observe(label, b)
	})
	return pt
}

// measureHydra runs one measured Hydra run — r's app and backend over p —
// and returns the attempt, still open, with its baseline. Setup chains
// (weight, period) execute once and are measured cumulatively; per-iteration
// chains are measured after a warm-up iteration, so first-execution clean
// halos do not skew the communication counters. The paper points and the
// GPUDirect ablation both measure through it: a run of each can share a
// fingerprint, and then either continues the other's snapshot.
func (c Config) measureHydra(r *runspec.Run, p *runspec.Problem, label string) (*runspec.Attempt, hydraResumeCtx) {
	var rctx hydraResumeCtx
	a, start := c.openAttempt(r, p, &rctx)
	b := a.CB
	if start == 0 {
		a.Init()
		a.Step() // warm-up
		rctx = hydraResumeCtx{T0: b.MaxClock(), Before: map[string]hydraMeas{}}
		for _, name := range hydra.ChainNames() {
			rctx.Before[name] = rawChain(b, name)
		}
	}
	for it := start; it < c.Iters; it++ {
		a.Step()
		c.tick(b, label, it+1, rctx)
	}
	return a, rctx
}

// rawChain reads one chain's cumulative counters (CA stats or, for per-loop
// fallback, the chain-prefixed loop stats).
func rawChain(b *cluster.Backend, name string) hydraMeas {
	cs := b.Stats().Chains[name]
	if cs == nil {
		return hydraMeas{}
	}
	meas := hydraMeas{Execs: cs.Executions, Time: cs.Time}
	if cs.CAExecutions > 0 {
		meas.Comm = float64(cs.Bytes)
		meas.Pmr = float64(cs.MaxNeighbours) * float64(cs.MaxMsgBytes)
		meas.Core = float64(cs.CoreIters)
		meas.Halo = float64(cs.HaloIters)
		return meas
	}
	prefix := name + "/"
	for key, ls := range b.Stats().Loops {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		meas.Comm += float64(ls.Bytes)
		meas.Core += float64(ls.CoreIters)
		meas.Halo += float64(ls.HaloIters)
	}
	return meas
}

// normalise converts cumulative counters to per-execution, per-rank values.
func normalise(m hydraMeas, execs, ranks int) hydraMeas {
	if execs <= 0 {
		return hydraMeas{}
	}
	perExec := float64(execs)
	perRank := perExec * float64(ranks)
	return hydraMeas{
		Time:  m.Time / perExec,
		Comm:  m.Comm / perRank,
		Pmr:   m.Pmr,
		Core:  m.Core / perRank,
		Halo:  m.Halo / perRank,
		Execs: execs,
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
					f6(o.Time), f6(a.Time), f2(gain(o.Time, a.Time)),
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
			if o.Comm > 0 {
				commRed = (o.Comm - a.Comm) / o.Comm * 100
			}
			compInc := 0.0
			if tot := o.Core + o.Halo; tot > 0 {
				compInc = (a.Core + a.Halo - tot) / tot * 100
			}
			t.Rows = append(t.Rows, []string{
				chain, fmt.Sprint(nn),
				f2(o.Comm), f2(o.Core), f2(o.Halo),
				f2(a.Pmr), f2(a.Core), f2(a.Halo),
				f2(gain(o.Time, a.Time)), f2(commRed), f2(compInc),
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
// benchmarks. Each runner lends the backends of its experiment their storage
// from one cluster.Lender of its own, and shares one declared app among the
// experiment's points on each mesh through one runspec.GCStore of its own.
func Experiments() map[string]func(Config) *Table {
	runners := map[string]func(Config) *Table{
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
	for name, run := range runners {
		runners[name] = func(c Config) *Table {
			if c.slabs == nil {
				c.slabs = new(cluster.Lender)
			}
			if c.instances == nil {
				c.instances = new(runspec.GCStore[runspec.InstanceKey, runspec.Instance])
			}
			return run(c)
		}
	}
	return runners
}

// ExperimentOrder lists experiment names in paper order, ablations last.
func ExperimentOrder() []string {
	return []string{"table2", "fig10", "fig11", "table3-4", "fig12", "fig13", "table5",
		"ablation-depth", "ablation-group", "ablation-partition", "ablation-gpu-launch", "ablation-gpudirect", "halo-profile",
		"overlap"}
}
