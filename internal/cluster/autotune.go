package cluster

// autotune.go wires the model-driven autotuner (package autotune) into the
// chain execution path. The first window of a tuned chain is the probe: it
// runs per-loop (the standard OP2 baseline) while the calibrator collects
// measured exchange spans, pack volumes and per-loop execution parameters;
// then the tuner fits the machine parameters, derives Equation (3) inputs
// for every feasible CA policy from the halo layouts, scores all candidates
// with the analytic model and commits to the winner. Every subsequent
// window runs the chosen policy and compares its measured time against the
// prediction; divergence beyond autotune's re-plan threshold (25 %) re-tunes
// at the next window boundary.
//
// Every candidate policy — per-loop OP2, CA at any feasible halo depth,
// grouped or per-dat messages — produces bit-identical data (the
// equivalence property the repo's tests enforce), so the tuner changes
// virtual time only, never results. The one place that could break is a
// configured chain whose pinned halo extensions sit *below* the
// conservative analysis: there CA execution is a deliberate
// application-knowledge override and per-loop probing would compute
// different (safe, but different) values. Such chains are excluded from
// tuning up front and recorded in AutoTuneStats.Skipped.

import (
	"fmt"

	"op2ca/internal/autotune"
	"op2ca/internal/ca"
	"op2ca/internal/chaincfg"
	"op2ca/internal/core"
	"op2ca/internal/model"
	"op2ca/internal/obs"
)

// tuneKey identifies one tuned chain: name plus structural signature, so a
// lazy chain whose auto-detected composition varies between flushes gets
// one tuner state per distinct structure.
type tuneKey struct {
	chain string
	sig   string
}

// tunedLoop is one chain position's measured Equation (1) parameters from
// the most recent complete per-loop window (G is filled from the
// calibration at decision time). Snapshots carry it as is.
type tunedLoop struct {
	Kernel string           `json:"kernel"`
	Params model.LoopParams `json:"params"`
}

// chainTune is the tuner state of one chain.
type chainTune struct {
	chain string
	cal   *autotune.Calibrator
	// skip marks chains excluded from tuning (invariance guard); they run
	// the static configuration unchanged.
	skip bool
	// dirty records the dat IDs observed dirty at window entry during
	// per-loop windows: the runtime validity state decides which of a CA
	// plan's required exchanges actually ship, so candidate message shapes
	// are derived from plan.Required filtered to these dats.
	dirty map[int]bool
	// window collects the current per-loop window's parameters; op2Params
	// holds the most recent complete window (the Equation (2) baseline).
	window    []tunedLoop
	op2Params []tunedLoop
	decision  *autotune.Decision
}

func (ct *chainTune) beginWindow() { ct.window = ct.window[:0] }

// endWindow publishes a completed per-loop window's parameters. Windows
// that ran CA leave the slice empty and keep the previous baseline.
func (ct *chainTune) endWindow() {
	if len(ct.window) > 0 {
		ct.op2Params = append(ct.op2Params[:0], ct.window...)
	}
}

// noteLoop records one loop execution of the sampled chain: a calibration
// sample (to solve for g) and the window's Equation (1) parameters.
func (ct *chainTune) noteLoop(kernel string, p model.LoopParams, seconds float64) {
	ct.cal.AddLoop(kernel, p, seconds)
	ct.window = append(ct.window, tunedLoop{Kernel: kernel, Params: p})
}

// noteExchange records one per-loop exchange of the sampled chain: which
// dats were dirty, and the pack throughput samples.
func (ct *chainTune) noteExchange(specs []exchangeSpec, sendBytes []int64, packRate float64) {
	for _, sp := range specs {
		ct.dirty[sp.dat.ID] = true
	}
	ct.notePack(sendBytes, packRate)
}

// notePack records per-rank pack volumes as throughput samples (the
// simulator charges packing at the machine's PackRate, so bytes/rate is the
// measured span).
func (ct *chainTune) notePack(sendBytes []int64, packRate float64) {
	for _, n := range sendBytes {
		if n > 0 {
			ct.cal.AddPack(n, float64(n)/packRate)
		}
	}
}

// tuneFor returns the tuner state for a chain about to execute with CA, or
// nil when the chain is not tuned (autotuning off and no per-chain auto
// flag, single-loop chain, disabled chain, or excluded by the invariance
// guard).
func (b *Backend) tuneFor(name string, loops []core.Loop, cfgChain *chaincfg.Chain) *chainTune {
	if !b.cfg.CA || len(loops) < 2 {
		return nil
	}
	if cfgChain != nil && cfgChain.Disabled {
		return nil
	}
	if !b.cfg.AutoTune && (cfgChain == nil || !cfgChain.Auto) {
		return nil
	}
	key := tuneKey{chain: name, sig: ca.ChainSignature(loops, nil)}
	if ct, ok := b.tunes[key]; ok {
		if ct.skip {
			return nil
		}
		return ct
	}
	b.stats.AutoTune.Enabled = true
	ct := &chainTune{
		chain: name,
		cal:   autotune.NewCalibrator(),
		dirty: map[int]bool{},
	}
	m := b.cfg.Machine
	ct.cal.EagerThreshold = float64(m.EagerThreshold)
	if m.GPU != nil && !b.cfg.GPUDirect {
		// Measured message spans cover the network leg alone; the model
		// prices staged exchanges with the enlarged latency Λ.
		ct.cal.ExtraLatency = m.GPU.ExchangeLatency(m.Latency) - m.Latency
	}
	if reason := b.tuneInvariant(name, loops, cfgChain); reason != "" {
		ct.skip = true
		b.stats.AutoTune.skip(name, reason)
	}
	b.tunes[key] = ct
	if ct.skip {
		return nil
	}
	return ct
}

// tuneInvariant checks that tuning cannot change the chain's results: a
// configured chain whose pinned halo extensions sit below the conservative
// analysis computes different values under CA than per-loop execution (a
// deliberate application-knowledge override, e.g. Hydra's paper
// configuration), so probing it per-loop would alter data. Returns a
// non-empty reason to exclude the chain from tuning.
func (b *Backend) tuneInvariant(name string, loops []core.Loop, cfgChain *chaincfg.Chain) string {
	if cfgChain == nil {
		return ""
	}
	base, errB := ca.Inspect(name, loops, b.overridesFor(cfgChain, len(loops)))
	safe, errS := ca.Inspect(name, loops, nil)
	if errB != nil || errS != nil {
		// Infeasible chains fall back to per-loop execution on every path;
		// nothing to guard.
		return ""
	}
	for i := range base.HE {
		if base.HE[i] < safe.HE[i] {
			return fmt.Sprintf("configured HE %v below conservative analysis %v: per-loop probing would change results",
				base.HE, safe.HE)
		}
	}
	return ""
}

// runTuned executes one window of a tuned chain: the per-loop probe window
// first, the decided policy afterwards, re-tuning when the measured window
// time diverges from the prediction.
func (b *Backend) runTuned(ct *chainTune, name string, loops []core.Loop, cfgChain *chaincfg.Chain, cs *ChainStats) {
	t0 := b.maxClock()
	ct.beginWindow()
	b.tuneSampling = ct
	decided := ct.decision
	if decided != nil && decided.ChosenPolicy.CA {
		b.runChainImpl(name, loops, cfgChain, decided.ChosenPolicy.HE, decided.ChosenPolicy.Grouped, decided.ChosenPolicy.Overlap, cs, true)
	} else {
		b.runPerLoop(name, loops, cs, t0)
	}
	b.tuneSampling = nil
	ct.endWindow()

	if decided == nil {
		b.tuneDecide(ct, name, loops, cfgChain)
		return
	}
	measured := b.maxClock() - t0
	decided.Windows++
	decided.Measured = measured
	if autotune.ShouldReplan(decided.Predicted, measured) {
		b.tuneDecide(ct, name, loops, cfgChain)
	}
}

// tuneDecide fits the calibration, enumerates and scores the candidate
// policies and commits the winner. Called at a window boundary, so a policy
// switch takes effect with the next window; the superseded policy's cached
// plan is invalidated.
func (b *Backend) tuneDecide(ct *chainTune, name string, loops []core.Loop, cfgChain *chaincfg.Chain) {
	m := b.cfg.Machine
	prior := autotune.Calib{
		L:              b.modelNet(0).L,
		B:              m.Bandwidth,
		PackRate:       m.PackRate,
		EagerThreshold: float64(m.EagerThreshold),
		Handshake:      m.HandshakeTime(),
		G:              make(map[string]float64, len(loops)),
	}
	for _, l := range loops {
		prior.G[l.Kernel.Name] = m.IterTime(l.Kernel)
	}
	cal := ct.cal.Fit(prior)

	in := autotune.ChainInputs{Chain: name}
	in.Op2 = make([]model.LoopParams, len(ct.op2Params))
	for i, tl := range ct.op2Params {
		in.Op2[i] = tl.Params
		in.Op2[i].G = cal.GFor(tl.Kernel, m.IterTime(loops[i].Kernel))
	}
	var reason string
	in.CA, reason = b.caCandidates(name, loops, cfgChain, ct, cal)

	d, err := autotune.Score(in, cal)
	if err != nil {
		// Degenerate calibration (e.g. a broken custom machine model):
		// keep the OP2 baseline rather than guessing.
		d = autotune.Decision{Chain: name, Chosen: autotune.Policy{}.Key(), Reason: err.Error()}
	} else if d.Reason == "" {
		d.Reason = reason
	}
	if prev := ct.decision; prev != nil {
		d.Replans = prev.Replans + 1
		d.Windows = prev.Windows
		d.Measured = prev.Measured
		if prev.ChosenPolicy.CA && !prev.ChosenPolicy.Equal(d.ChosenPolicy) {
			// The superseded policy's plan (and its exchange schedules)
			// will not be replayed; drop it from the cache. A warm
			// (checkpoint-restored, not yet rebuilt) entry counts the same
			// invalidation the uninterrupted run would have.
			key := planKey{Chain: name, Sig: ca.ChainSignature(loops, prev.ChosenPolicy.HE)}
			if e, ok := b.plans[key.Chain+"\x00"+key.Sig]; ok {
				b.invalidatePlan(e)
			} else if b.warmPlans[key] {
				delete(b.warmPlans, key)
				b.planInvalidations++
			}
		}
	}
	ct.decision = &d
	b.stats.AutoTune.note(&d, cal)
	if b.tracer.Enabled() {
		t := b.maxClock()
		b.tracer.Emit(0, obs.TrackExec, obs.Tune, name+" -> "+d.Chosen, t, t, 0)
	}
}

// caCandidates enumerates the feasible CA policies for a chain: the base
// plan (Algorithm 3 plus any configured overrides) and every uniformly
// deeper halo extension up to the back-end's built halo depth, each grouped
// and ungrouped. A non-empty reason explains an empty or truncated
// candidate set.
func (b *Backend) caCandidates(name string, loops []core.Loop, cfgChain *chaincfg.Chain, ct *chainTune, cal autotune.Calib) ([]autotune.CACandidate, string) {
	if len(loops) > b.cfg.MaxChainLen {
		return nil, fmt.Sprintf("chain length %d exceeds MaxChainLen %d", len(loops), b.cfg.MaxChainLen)
	}
	baseOver := b.overridesFor(cfgChain, len(loops))
	base, err := ca.Inspect(name, loops, baseOver)
	if err != nil {
		return nil, fmt.Sprintf("CA infeasible: %v", err)
	}
	if base.MaxDepth > b.cfg.Depth {
		return nil, fmt.Sprintf("chain needs halo depth %d, back-end built with Depth %d", base.MaxDepth, b.cfg.Depth)
	}
	var out []autotune.CACandidate
	// Overlap is a policy dimension only for overlap-eligible chains
	// (Config.Overlap or the chain's "overlap" token): each feasible
	// (depth, grouping) pair is then scored both bulk and overlapped, so
	// the op2-vs-CA comparison stays honest when pipelining changes which
	// CA shape wins. Bulk-only configurations enumerate exactly as before.
	modes := []bool{false}
	if b.overlapFor(cfgChain) {
		modes = []bool{false, true}
	}
	addPlan := func(p ca.Plan, over []int) {
		for _, ov := range modes {
			if !b.cfg.NoGroupedMsgs {
				out = append(out, b.caCandidate(loops, p, over, true, ov, ct, cal))
			}
			out = append(out, b.caCandidate(loops, p, over, false, ov, ct, cal))
		}
	}
	// The base plan's policy carries exactly the overrides the static path
	// would use, so its plan-cache key matches a static run's.
	addPlan(base, baseOver)
	for r := base.MaxDepth + 1; r <= b.cfg.Depth; r++ {
		over := make([]int, len(loops))
		for i := range over {
			over[i] = r
		}
		p, err := ca.Inspect(name, loops, over)
		if err != nil || p.MaxDepth != r {
			continue
		}
		addPlan(p, over)
	}
	return out, ""
}

// caCandidate prices one (plan, grouping) pair: Equation (3) parameters
// from the halo layouts — the per-loop core/halo iteration splits the
// executor itself derives (splitLoop) — and the message shape from the plan's
// required exchanges filtered to the dats observed dirty during probing.
func (b *Backend) caCandidate(loops []core.Loop, p ca.Plan, over []int, grouped, overlap bool, ct *chainTune, cal autotune.Calib) autotune.CACandidate {
	m := b.cfg.Machine
	var specs []exchangeSpec
	for _, sp := range requiredSpecs(p) {
		if ct.dirty[sp.dat.ID] {
			specs = append(specs, sp)
		}
	}
	// The message shape is read off the schedule the exchange would run:
	// built, not memoised (most candidates never execute) and not replayed.
	shape := b.buildSchedule(specs, grouped)
	maxMsg, maxNeigh := shape.maxMsgBytes, shape.maxNeigh
	exchanging := len(shape.msgs) > 0

	n := len(loops)
	lp := make([]model.LoopParams, n)
	for i, l := range loops {
		lp[i].G = cal.GFor(l.Kernel.Name, m.IterTime(l.Kernel))
	}
	for r := 0; r < b.cfg.NParts; r++ {
		lay := b.layouts[r]
		for i, l := range loops {
			sp := splitLoop(lay.SetL(l.Set), p.HE[i], p.HN[i], i, exchanging)
			lp[i].CoreIters = max(lp[i].CoreIters, float64(sp.core))
			lp[i].HaloIters = max(lp[i].HaloIters, float64(sp.halo()))
		}
	}
	cand := autotune.CACandidate{
		Policy: autotune.Policy{CA: true, Depth: p.MaxDepth, HE: over, Grouped: grouped, Overlap: overlap},
		Params: model.ChainParams{
			Loops:        lp,
			Neighbours:   float64(maxNeigh),
			GroupedBytes: float64(maxMsg),
		},
	}
	if grouped {
		cand.PackBytes = float64(maxMsg)
	}
	return cand
}
