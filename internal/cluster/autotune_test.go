package cluster

import (
	"bytes"
	"strings"
	"testing"

	"op2ca/internal/ca"
	"op2ca/internal/chaincfg"
	"op2ca/internal/faults"
	"op2ca/internal/machine"
	"op2ca/internal/mesh"
	"op2ca/internal/model"
	"op2ca/internal/obs"
	"op2ca/internal/partition"
)

// tunedResult runs the mini-app with the autotuner engaged and returns the
// final dats and the backend.
func tunedResult(t *testing.T, m *mesh.FV3D, steps, nparts int, tweak func(*Config)) (map[string][]float64, *Backend) {
	t.Helper()
	a := newMiniApp(m)
	a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
	cfg := Config{
		Prog: a.p, Primary: a.nodes, Assign: partition.KWay(m.NodeAdjacency(), nparts),
		NParts: nparts, Depth: 2, MaxChainLen: 4, CA: true, AutoTune: true,
		Machine: machine.ARCHER2(),
	}
	if tweak != nil {
		tweak(&cfg)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.run(b, steps, true)
	return map[string][]float64{
		"res": b.GatherDat(a.res), "flux": b.GatherDat(a.flux),
	}, b
}

// TestAutoTuneRequiresCA: the tuner picks between per-loop and Algorithm 2
// execution, so it is meaningless on an op2-only backend.
func TestAutoTuneRequiresCA(t *testing.T) {
	m := mesh.Rotor(6, 5, 4)
	a := newMiniApp(m)
	_, err := New(Config{
		Prog: a.p, Primary: a.nodes, Assign: partition.Block(m.NNodes, 3),
		NParts: 3, Depth: 2, MaxChainLen: 4, AutoTune: true,
		Machine: machine.ARCHER2(),
	})
	if err == nil || !strings.Contains(err.Error(), "AutoTune requires CA") {
		t.Fatalf("err = %v, want AutoTune-requires-CA", err)
	}
}

// TestAutoTuneBitIdentical: the tuner is pure performance surface — an
// autotuned run's results must match both the sequential reference and the
// static CA run bit for bit, whatever policies it probed or chose.
func TestAutoTuneBitIdentical(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	const steps, nparts = 6, 5
	want := seqResult(m, steps)
	tuned, b := tunedResult(t, m, steps, nparts, nil)
	compareExact(t, "autotune vs seq", tuned, want)
	static, _ := clusterResult(t, m, steps, nparts, true, true, false,
		partition.KWay(m.NodeAdjacency(), nparts))
	compareExact(t, "autotune vs static CA", tuned, static)
	if !b.Stats().AutoTune.Enabled {
		t.Fatal("tuner never engaged")
	}
	if len(b.Stats().AutoTune.Decisions) == 0 {
		t.Fatal("no decision recorded")
	}
}

// TestAutoTuneChoosesPredictedMinimum: the chosen policy must be the
// predicted minimum over the scored candidates, with OP2 keeping ties
// (candidates are scored OP2-first, so jq's min_by agrees).
func TestAutoTuneChoosesPredictedMinimum(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	_, b := tunedResult(t, m, 6, 5, nil)
	at := b.Stats().AutoTune
	if len(at.Order) == 0 {
		t.Fatal("no decisions")
	}
	for _, name := range at.Order {
		d := at.Decisions[name]
		if len(d.Candidates) == 0 {
			t.Fatalf("%s: decision with no candidates: %+v", name, d)
		}
		best := d.Candidates[0]
		for _, c := range d.Candidates[1:] {
			if c.Predicted < best.Predicted {
				best = c
			}
		}
		if d.Chosen != best.Policy {
			t.Errorf("%s: chose %q, predicted minimum is %q (%+v)", name, d.Chosen, best.Policy, d.Candidates)
		}
		if d.Predicted != best.Predicted {
			t.Errorf("%s: Predicted %g != winner's %g", name, d.Predicted, best.Predicted)
		}
		if d.Windows == 0 {
			t.Errorf("%s: no decided windows measured", name)
		}
	}
}

// TestAutoTuneSelectsCAWhenModelFavoursIt: under a latency-dominated
// machine the grouped CA exchange must price (and get chosen) below OP2's
// per-loop exchanges, and the chain must then actually execute with CA.
func TestAutoTuneSelectsCAWhenModelFavoursIt(t *testing.T) {
	m := mesh.Rotor(10, 8, 6)
	slow := machine.ARCHER2()
	slow.Latency = 200e-6 // make per-loop message latencies dominate
	_, b := tunedResult(t, m, 6, 6, func(c *Config) { c.Machine = slow })
	d := b.Stats().AutoTune.Decisions["synth"]
	if d == nil {
		t.Fatal("no decision for synth")
	}
	if !d.ChosenPolicy.CA {
		t.Fatalf("latency-dominated machine must choose CA: %+v", d)
	}
	if cs := b.Stats().Chains["synth"]; cs == nil || cs.CAExecutions == 0 {
		t.Fatal("decision chose CA but no CA execution ran")
	}
	// Fast network, heavy redundant compute: model must keep OP2.
	fast := machine.ARCHER2()
	fast.Latency = 1e-12
	fast.Bandwidth = 1e15
	_, b2 := tunedResult(t, m, 6, 6, func(c *Config) { c.Machine = fast })
	d2 := b2.Stats().AutoTune.Decisions["synth"]
	if d2 == nil {
		t.Fatal("no decision for synth on the fast machine")
	}
	if d2.ChosenPolicy.CA {
		t.Fatalf("near-free communication must keep OP2: %+v", d2)
	}
}

// TestTunerScoresWhatTheExecutorRuns: Equation (3)'s per-loop S^c and S^h
// have one derivation (splitLoop), so the core and halo iteration counts the
// chosen candidate was scored by are the ones runChainImpl hands to
// model.TCAChain when that policy runs its next window.
func TestTunerScoresWhatTheExecutorRuns(t *testing.T) {
	m := mesh.Rotor(10, 8, 6)
	slow := machine.ARCHER2()
	slow.Latency = 200e-6 // latency-dominated: the tuner must choose CA
	a := newMiniApp(m)
	a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
	b, err := New(Config{
		Prog: a.p, Primary: a.nodes, Assign: partition.KWay(m.NodeAdjacency(), 6),
		NParts: 6, Depth: 2, MaxChainLen: 4, CA: true, AutoTune: true, Machine: slow,
	})
	if err != nil {
		t.Fatal(err)
	}
	// An undemarcated step first, so the probe window meets dirty halos and
	// the candidates are priced with the exchange steady-state windows make.
	a.run(b, 1, false)
	a.run(b, 1, true)
	d := b.Stats().AutoTune.Decisions["synth"]
	if d == nil || !d.ChosenPolicy.CA {
		t.Fatalf("decision %+v, want a CA policy", d)
	}
	loops := b.recScratch.loops // the chain just executed
	ct := b.tunes[tuneKey{chain: "synth", sig: ca.ChainSignature(loops, nil)}]
	cands, _ := b.caCandidates("synth", loops, nil, ct, b.Stats().AutoTune.Calib)
	var scored []model.LoopParams
	for _, c := range cands {
		if c.Policy.Equal(d.ChosenPolicy) {
			scored = c.Params.Loops
		}
	}
	if len(scored) != len(loops) {
		t.Fatalf("chosen policy %s is not among the %d candidates", d.Chosen, len(cands))
	}
	a.run(b, 1, true)
	if cs := b.Stats().Chains["synth"]; cs.CAExecutions != 1 {
		t.Fatalf("the decided window did not run CA: %+v", cs)
	}
	halo := 0.0
	for i, ran := range b.scr.lp[:len(loops)] {
		if ran.CoreIters != scored[i].CoreIters || ran.HaloIters != scored[i].HaloIters {
			t.Errorf("loop %d: scored core/halo %g/%g, executed %g/%g", i,
				scored[i].CoreIters, scored[i].HaloIters, ran.CoreIters, ran.HaloIters)
		}
		halo += ran.HaloIters
	}
	if halo == 0 {
		t.Error("the window exchanged nothing: every iteration was core, the split was not exercised")
	}
}

// TestAutoTuneReplans: a decided window whose measured time diverges from
// the prediction by more than the re-plan threshold forces a re-tune, still
// bit-identically. The divergence is a rank that starts straggling after the
// probe window, so the calibration the decision rests on never saw it (the
// backend shares the plan pointer, as in TestPlanCacheInvalidationRepopulates).
func TestAutoTuneReplans(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	const steps = 6
	plan := &faults.Plan{Seed: 1}
	a := newMiniApp(m)
	a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
	b, err := New(Config{
		Prog: a.p, Primary: a.nodes, Assign: partition.KWay(m.NodeAdjacency(), 5),
		NParts: 5, Depth: 2, MaxChainLen: 4, CA: true, AutoTune: true,
		Machine: machine.ARCHER2(), Faults: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.run(b, 1, true)
	d := b.Stats().AutoTune.Decisions["synth"]
	if d == nil || d.Replans != 0 {
		t.Fatalf("after the probe window: decision %+v, want one and no re-plan yet", d)
	}
	plan.Stragglers = map[int32]float64{0: 50}
	a.run(b, steps-1, true)
	got := map[string][]float64{"res": b.GatherDat(a.res), "flux": b.GatherDat(a.flux)}
	compareExact(t, "replanning run vs seq", got, seqResult(m, steps))
	if d = b.Stats().AutoTune.Decisions["synth"]; d.Replans == 0 {
		t.Fatalf("predicted %gs, measured %gs under a 50x straggler, yet no re-plan", d.Predicted, d.Measured)
	}
}

// TestAutoTuneSkipsUnsafeConfiguredChain: a configured chain whose pinned
// halo extensions sit below the conservative analysis (the Hydra paper
// configuration pattern) computes different values per-loop than with CA,
// so the tuner must refuse to probe it and leave the static policy alone.
func TestAutoTuneSkipsUnsafeConfiguredChain(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	chains, err := chaincfg.ParseString("chain synth maxhe=1\n")
	if err != nil {
		t.Fatal(err)
	}
	const steps = 5
	got, b := tunedResult(t, m, steps, 5, func(c *Config) { c.Chains = chains })
	at := b.Stats().AutoTune
	if len(at.Skipped) == 0 {
		t.Fatalf("capped chain must be skipped: %+v", at)
	}
	if _, ok := at.Decisions["synth"]; ok {
		t.Fatal("skipped chain must not be tuned")
	}
	// The static capped-HE run is the reference the tuner must not disturb.
	a := newMiniApp(m)
	a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
	ref, err := New(Config{
		Prog: a.p, Primary: a.nodes, Assign: partition.KWay(m.NodeAdjacency(), 5),
		NParts: 5, Depth: 2, MaxChainLen: 4, CA: true, Chains: chains,
		Machine: machine.ARCHER2(),
	})
	if err != nil {
		t.Fatal(err)
	}
	a.run(ref, steps, true)
	compareExact(t, "skipped chain vs static capped run", got,
		map[string][]float64{"res": ref.GatherDat(a.res), "flux": ref.GatherDat(a.flux)})
}

// TestChainAutoFlagEnablesTuning: the chaincfg "auto" token opts a single
// chain into tuning without the backend-wide AutoTune switch.
func TestChainAutoFlagEnablesTuning(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	chains, err := chaincfg.ParseString("chain synth auto\n")
	if err != nil {
		t.Fatal(err)
	}
	_, b := tunedResult(t, m, 5, 5, func(c *Config) {
		c.AutoTune = false
		c.Chains = chains
	})
	if d := b.Stats().AutoTune.Decisions["synth"]; d == nil {
		t.Fatal("per-chain auto flag must engage the tuner")
	}
}

// TestAutoTuneObservability: decisions surface through the stats report,
// the Prometheus export and a zero-length tune trace span.
func TestAutoTuneObservability(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	tr := obs.New()
	_, b := tunedResult(t, m, 6, 5, func(c *Config) { c.Tracer = tr })
	s := b.Stats().String()
	if !strings.Contains(s, "autotune: chain synth") || !strings.Contains(s, "candidate op2") {
		t.Errorf("stats report missing autotune lines:\n%s", s)
	}
	var buf bytes.Buffer
	mw := obs.NewMetricsWriter(&buf)
	b.Stats().WriteMetrics(mw)
	if err := mw.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{
		"op2ca_autotune_decisions_total", "op2ca_autotune_predicted_seconds",
		"op2ca_autotune_latency_seconds", "op2ca_autotune_g_seconds",
	} {
		if !strings.Contains(buf.String(), metric) {
			t.Errorf("metrics missing %s", metric)
		}
	}
	found := false
	for _, sp := range tr.Spans() {
		if sp.Kind == obs.Tune {
			found = true
			if sp.End != sp.Begin {
				t.Errorf("tune span must be zero-length: %+v", sp)
			}
			if !strings.HasPrefix(sp.Name, "synth -> ") {
				t.Errorf("tune span name = %q", sp.Name)
			}
		}
	}
	if !found {
		t.Error("no tune span emitted")
	}
}
