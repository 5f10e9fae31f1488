package cluster

import (
	"strings"
	"testing"

	"op2ca/internal/chaincfg"
	"op2ca/internal/core"
	"op2ca/internal/faults"
	"op2ca/internal/machine"
	"op2ca/internal/mesh"
	"op2ca/internal/obs"
	"op2ca/internal/partition"
)

// faultyResult runs the mini-app under a fault plan (nil for fault-free) on
// one backend mode and returns the gathered results.
func faultyResult(t *testing.T, m *mesh.FV3D, steps int, plan *faults.Plan, mode string) (map[string][]float64, *Backend) {
	t.Helper()
	a := newMiniApp(m)
	a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
	cfg := Config{
		Prog: a.p, Primary: a.nodes, Assign: partition.KWay(m.NodeAdjacency(), 4), NParts: 4,
		Depth: 2, MaxChainLen: 4, Machine: machine.ARCHER2(), Faults: plan,
	}
	chain := false
	switch mode {
	case "op2":
	case "ca":
		cfg.CA, chain = true, true
	case "ca-parallel":
		cfg.CA, cfg.Parallel, chain = true, true, true
	case "ca-ungrouped":
		cfg.CA, cfg.NoGroupedMsgs, chain = true, true, true
	case "ca-overlap":
		cfg.CA, cfg.Overlap, chain = true, true, true
	case "ca-ungrouped-overlap":
		cfg.CA, cfg.NoGroupedMsgs, cfg.Overlap, chain = true, true, true, true
	default:
		t.Fatalf("unknown mode %q", mode)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	a.run(b, steps, chain)
	return map[string][]float64{
		"res": b.GatherDat(a.res), "flux": b.GatherDat(a.flux),
	}, b
}

// TestFaultsPreserveResultsBitIdentical is the core robustness property:
// under any fault plan, every backend mode produces results bit-identical to
// the fault-free run (and to the sequential reference) — faults shape only
// virtual time and the fault counters.
func TestFaultsPreserveResultsBitIdentical(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	want := seqResult(m, 2)
	plan := faults.MustParse("drop=0.2,corrupt=0.1,delay=3x@0.2,straggler=rank1:2x,seed=7")
	for _, mode := range []string{"op2", "ca", "ca-parallel", "ca-ungrouped",
		"ca-overlap", "ca-ungrouped-overlap"} {
		clean, cb := faultyResult(t, m, 2, nil, mode)
		faulty, fb := faultyResult(t, m, 2, plan, mode)
		compareExact(t, mode+"/faulty-vs-seq", faulty, want)
		compareExact(t, mode+"/faulty-vs-clean", faulty, clean)
		fs := fb.Stats().Faults
		if fs.Drops == 0 || fs.Retries == 0 {
			t.Errorf("%s: fault plan injected nothing: %+v", mode, fs)
		}
		if cfs := cb.Stats().Faults; cfs != (FaultStats{}) {
			t.Errorf("%s: fault-free run counted fault events: %+v", mode, cfs)
		}
		if fb.MaxClock() <= cb.MaxClock() {
			t.Errorf("%s: faulted clock %g not above fault-free %g (retries charge time)",
				mode, fb.MaxClock(), cb.MaxClock())
		}
	}
}

// TestFaultScheduleDeterministic: the same plan yields the identical fault
// schedule, clocks and stats on every run.
func TestFaultScheduleDeterministic(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	plan := faults.MustParse("drop=0.1,corrupt=0.05,delay=2x@0.1,seed=11")
	run := func() ([]float64, string, FaultStats) {
		_, b := faultyResult(t, m, 2, plan, "ca")
		return append([]float64(nil), b.Clocks()...), b.Stats().String(), b.Stats().Faults
	}
	c1, s1, f1 := run()
	c2, s2, f2 := run()
	for r := range c1 {
		if c1[r] != c2[r] {
			t.Fatalf("rank %d clock differs between identical runs: %v vs %v", r, c1[r], c2[r])
		}
	}
	if s1 != s2 {
		t.Errorf("stats differ between identical runs:\n%s\nvs\n%s", s1, s2)
	}
	if f1 != f2 {
		t.Errorf("fault counters differ between identical runs: %+v vs %+v", f1, f2)
	}
	if f1.Retries == 0 {
		t.Error("plan injected no retries; determinism check is vacuous")
	}
}

// TestForcedDegradationCompletesPerLoop: under total message loss a CA chain
// must not die — it walks the degradation ladder (grouped -> per-dat ->
// per-loop OP2) and completes with correct results, recording the fallbacks
// in stats and the retry/giveup events in the trace.
func TestForcedDegradationCompletesPerLoop(t *testing.T) {
	m := mesh.Rotor(6, 5, 4)
	want := seqResult(m, 3)
	plan := faults.MustParse("drop=1,seed=3,maxretries=1")
	tr := obs.New()
	a := newMiniApp(m)
	a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
	b, err := New(Config{
		Prog: a.p, Primary: a.nodes, Assign: partition.Block(m.NNodes, 3), NParts: 3,
		Depth: 2, MaxChainLen: 4, CA: true, Machine: machine.ARCHER2(),
		Faults: plan, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.run(b, 3, true)
	got := map[string][]float64{"res": b.GatherDat(a.res), "flux": b.GatherDat(a.flux)}
	compareExact(t, "degraded", got, want)

	// The first chain execution exchanges nothing (halos valid from the
	// initial scatter) and completes with CA; executions two and three
	// must exchange dirty halos and degrade all the way to per-loop OP2.
	cs := b.Stats().Chains["synth"]
	if cs.CAExecutions != 1 {
		t.Errorf("CAExecutions = %d, want 1 (only the exchange-free first execution): %+v",
			cs.CAExecutions, cs)
	}
	if cs.FallbackUngrouped != 2 || cs.FallbackPerLoop != 2 {
		t.Errorf("fallbacks = (ungrouped %d, perloop %d), want (2, 2)",
			cs.FallbackUngrouped, cs.FallbackPerLoop)
	}
	fs := b.Stats().Faults
	if fs.Giveups == 0 || fs.Retries == 0 || fs.Drops == 0 {
		t.Errorf("fault counters missing events: %+v", fs)
	}
	if fs.FallbackPerLoop != 2 || fs.FallbackUngrouped != 2 {
		t.Errorf("run-level fallback counters = %+v, want 2 each", fs)
	}
	hits, misses, inv := b.PlanCacheStats()
	if hits != 1 || misses != 2 || inv != 2 {
		t.Errorf("plan cache hits=%d misses=%d invalidations=%d, want 1/2/2 (each degradation evicts)",
			hits, misses, inv)
	}
	var retrySpans, giveupSpans int
	for _, sp := range tr.Spans() {
		switch sp.Kind {
		case obs.Retry:
			retrySpans++
			if sp.Dur() <= 0 {
				t.Errorf("retry span with non-positive duration: %+v", sp)
			}
		case obs.Giveup:
			giveupSpans++
		}
	}
	if retrySpans == 0 || giveupSpans == 0 {
		t.Errorf("trace recorded %d retry and %d giveup spans, want both > 0", retrySpans, giveupSpans)
	}
	if !strings.Contains(b.Stats().String(), "faults ") {
		t.Error("stats report omits the faults line")
	}
}

// TestPlanCacheInvalidationRepopulates: after a forced CA->OP2 fallback the
// entry is gone; the next fault-free execution re-inspects and repopulates,
// with the invalidation counted exactly once.
func TestPlanCacheInvalidationRepopulates(t *testing.T) {
	m := mesh.Rotor(6, 5, 4)
	plan := &faults.Plan{Seed: 5, Drop: 1, MaxRetries: 1}
	a := newMiniApp(m)
	a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
	b, err := New(Config{
		Prog: a.p, Primary: a.nodes, Assign: partition.Block(m.NNodes, 3), NParts: 3,
		Depth: 2, MaxChainLen: 4, CA: true, Machine: machine.ARCHER2(),
		Faults: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Step 1: the chain's first execution exchanges nothing (halos valid
	// from the scatter), so it completes with CA and populates the cache.
	// Step 2: dirty halos force an exchange under total loss — the window
	// degrades to per-loop OP2 and evicts the cached plan.
	a.run(b, 2, true)
	hits, misses, inv := b.PlanCacheStats()
	if hits != 1 || misses != 1 || inv != 1 {
		t.Fatalf("after degraded execution: hits=%d misses=%d invalidations=%d, want 1/1/1", hits, misses, inv)
	}
	if cs := b.Stats().Chains["synth"]; cs.FallbackPerLoop != 1 {
		t.Fatalf("expected one per-loop fallback, got %+v", cs)
	}
	// Heal the network: the backend shares this plan pointer, so zeroing
	// the drop probability makes all subsequent exchanges clean.
	plan.Drop = 0
	a.run(b, 2, true)
	hits, misses, inv = b.PlanCacheStats()
	if misses != 2 {
		t.Errorf("fault-free re-execution did not re-inspect: misses=%d, want 2", misses)
	}
	if inv != 1 {
		t.Errorf("invalidations=%d, want exactly 1", inv)
	}
	if hits != 2 {
		t.Errorf("hits=%d, want 2 (final execution replays the repopulated plan)", hits)
	}
	if cs := b.Stats().Chains["synth"]; cs.CAExecutions != 3 || cs.Executions != 4 {
		t.Errorf("chain stats after healing: %+v, want 3 CA of 4 executions", cs)
	}
	got := map[string][]float64{"res": b.GatherDat(a.res), "flux": b.GatherDat(a.flux)}
	compareExact(t, "recache", got, seqResult(m, 4))
}

// TestChainMaxRetriesOverride: the chain configuration's maxretries option
// reaches the exchange layer (a budget of 1 under total loss gives up after
// exactly two attempts per message on the grouped rung).
func TestChainMaxRetriesOverride(t *testing.T) {
	m := mesh.Rotor(6, 5, 4)
	a := newMiniApp(m)
	a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
	b, err := New(Config{
		Prog: a.p, Primary: a.nodes, Assign: partition.Block(m.NNodes, 3), NParts: 3,
		Depth: 2, MaxChainLen: 4, CA: true, Machine: machine.ARCHER2(),
		Faults: faults.MustParse("drop=1,seed=2,maxretries=5"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.maxRetriesFor(nil); got != 5 {
		t.Errorf("default budget = %d, want 5 from the plan's maxretries clause", got)
	}
	cfg, err := chaincfg.ParseString("chain synth maxretries=1")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.maxRetriesFor(cfg.Get("synth")); got != 1 {
		t.Errorf("chain override budget = %d, want 1", got)
	}
}

// TestNewRejectsInvalidNetwork: construction-time validation of the machine's
// network parameters (TestMaxRetriesValidation has the retry budgets).
func TestNewRejectsInvalidNetwork(t *testing.T) {
	p := core.NewProgram()
	nodes := p.DeclSet(4, "nodes")
	bad := *machine.Laptop()
	bad.Bandwidth = 0
	cfg := Config{Prog: p, Primary: nodes, Assign: []int32{0, 0, 0, 0}, NParts: 1, Machine: &bad}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "Bandwidth") {
		t.Errorf("zero-bandwidth machine accepted: %v", err)
	}
}
