package cluster

import (
	"errors"
	"fmt"

	"op2ca/internal/ca"
	"op2ca/internal/chaincfg"
	"op2ca/internal/core"
	"op2ca/internal/model"
	"op2ca/internal/netsim"
)

// runChain executes a loop-chain with the communication-avoiding scheme of
// Algorithm 2: inspect (Algorithm 3 plus configuration overrides), exchange
// one grouped message per neighbour covering all required halo shells, run
// every loop's core region while messages are in flight, wait once, then run
// every loop's halo regions up to its halo extension. auto marks an
// automatically detected (lazy) chain: an under-built halo depth is then not
// a configuration error but a reason to fall back to per-loop execution.
func (b *Backend) runChain(name string, loops []core.Loop, cfgChain *chaincfg.Chain, cs *ChainStats, auto bool) {
	b.runChainImpl(name, loops, cfgChain, b.overridesFor(cfgChain, len(loops)), !b.cfg.NoGroupedMsgs, b.overlapFor(cfgChain), cs, auto)
}

// overlapFor resolves whether a chain's exchange is delivered under
// netsim.Overlapped — pack, post-send, compute-core, complete-recv,
// compute-halo as a pipeline, so only the part of L + m/B that core
// computation does not hide is charged as wait — instead of as a
// bulk-synchronous block: the backend-wide Config.Overlap switch, or the
// chain's own "overlap" configuration token. The autotuner layers its
// per-policy choice on top (see runTuned). Only virtual time changes; the
// data pass is the same canonical-order execution under either protocol.
// Per-loop exchanges never overlap: they are the probe/calibration baseline
// whose per-message spans must decompose as h*L + m/B for the network fit,
// and their per-dat eager messages have little pipeline to exploit.
func (b *Backend) overlapFor(c *chaincfg.Chain) bool {
	if b.cfg.Overlap {
		return true
	}
	return c != nil && c.Overlap
}

// overridesFor resolves a chain configuration's per-loop halo-extension
// overrides; nil for an unconfigured chain, matching ca.Inspect's "no
// override" convention. The resolution is memoised per configured chain
// (configurations are static for a Backend's lifetime), so steady-state
// chain execution does not re-derive it.
func (b *Backend) overridesFor(cfgChain *chaincfg.Chain, n int) []int {
	if cfgChain == nil {
		return nil
	}
	if c, ok := b.heCache[cfgChain]; ok && c.n == n {
		return c.over
	}
	over, err := cfgChain.HEOverrides(n)
	if err != nil {
		panic("cluster: " + err.Error())
	}
	b.heCache[cfgChain] = heOverrides{n: n, over: over}
	return over
}

// runPerLoop executes a chain's loops as ordinary per-loop OP2 code,
// attributing time and the Equation (2) prediction (the sum of per-loop
// Equation (1) predictions) to the chain. It is the CA fallback path, the
// explicit-chain path when CA is off, and the autotuner's probe window.
func (b *Backend) runPerLoop(name string, loops []core.Loop, cs *ChainStats, t0 float64) {
	for _, l := range loops {
		ls := b.stats.loop(name + "/" + l.Kernel.Name)
		before := ls.Predicted
		b.runStandard(l, name)
		cs.Predicted += ls.Predicted - before
	}
	cs.Time += b.maxClock() - t0
}

// runChainImpl is the CA chain executor. overrides, grouped and overlap are
// the policy knobs: the static path derives them from the configuration
// (overridesFor, !NoGroupedMsgs, overlapFor), the autotuner passes its
// chosen policy. With overlap the exchange is delivered pipelined (see
// overlapFor); the degradation ladder's ungrouped rung keeps the chain's
// overlap mode, while the per-loop rung is bulk by construction.
func (b *Backend) runChainImpl(name string, loops []core.Loop, cfgChain *chaincfg.Chain,
	overrides []int, grouped, overlap bool, cs *ChainStats, auto bool) {
	t0 := b.maxClock()
	m := b.cfg.Machine

	fallback := func() {
		b.runPerLoop(name, loops, cs, t0)
	}

	// Inspect once, execute many: the plan cache memoises the inspection
	// result per chain structure.
	entry := b.planEntry(name, loops, overrides)
	var plan ca.Plan
	var err error
	if entry != nil {
		plan, err = entry.plan, entry.err
	} else {
		plan, err = ca.Inspect(name, loops, overrides)
	}
	if errors.Is(err, ca.ErrInfeasible) {
		// Dependencies not satisfiable by redundant computation: run the
		// chain as ordinary per-loop OP2 code.
		fallback()
		return
	}
	if err != nil {
		panic("cluster: " + err.Error())
	}
	if plan.MaxDepth > b.cfg.Depth {
		if auto {
			fallback()
			return
		}
		panic(fmt.Sprintf("cluster: chain %q needs halo depth %d but the back-end was built with Depth %d; raise Config.Depth",
			name, plan.MaxDepth, b.cfg.Depth))
	}
	if len(loops) > b.cfg.MaxChainLen {
		if auto {
			fallback()
			return
		}
		panic(fmt.Sprintf("cluster: chain %q has %d loops but the back-end was built with MaxChainLen %d; raise Config.MaxChainLen",
			name, len(loops), b.cfg.MaxChainLen))
	}

	// The executable plan, compiled and validated before the exchange below
	// moves a value: a chain that under-reaches its halo fails here, with
	// every dat still in its pre-chain state.
	sc := &b.scr
	sc.chainProg = b.programFor(entry, loops, plan)

	// Snapshot the validity state before filterNeeds bumps it: the
	// per-loop degradation rung re-executes the window through
	// runStandard, whose exchanges must see the pre-chain dirty state.
	var savedValid []validity
	if b.cfg.Faults.Enabled() {
		savedValid = append([]validity(nil), b.valid...)
	}
	specs := entry.specsFor(plan)
	specs = b.filterNeeds(specs)
	res := b.exchange(specs, grouped)
	if ct := b.tuneSampling; ct != nil {
		ct.notePack(res.sendBytes, m.PackRate)
	}
	exchanging := len(res.msgs) > 0

	n := len(loops)
	g := sc.g[:n]
	for i, l := range loops {
		g[i] = m.IterTime(l.Kernel)
	}

	// Phase split: derive every rank's iteration ranges and post times
	// first, deliver (and possibly degrade) second, run the loops last.
	// post depends only on the pre-chain clocks, so hoisting it ahead of
	// loop execution changes nothing — and a window that degrades to
	// per-loop execution must not have run its loops (Inc arguments would
	// double-apply). The per-rank × per-loop matrices and the fork
	// parameters live in Backend scratch: prebuilt fork functions, no
	// per-execution allocation.
	post := sc.chainPost
	sc.chainLoops, sc.chainExch, sc.chainSend = loops, exchanging, res.sendBytes
	sc.chainHE, sc.chainHN = plan.HE, plan.HN
	b.forEachRank(b.fnChainPrep)

	maxR := b.maxRetriesFor(cfgChain)
	proto := netsim.Bulk
	if overlap {
		proto = netsim.Overlapped
	}
	d := b.deliver(post, res.msgs, name, maxR, proto)
	if d.giveups > 0 {
		// Degradation ladder: the CA exchange could not complete within
		// its retransmission budget. The cached plan is what failed, so the
		// entry is evicted either way; the next execution of this chain
		// re-inspects and repopulates the cache.
		b.invalidatePlan(entry)
		restart := d.restartTime(b.retryTimeout)
		recovered := false
		if grouped {
			// Rung 2: repeat the exchange with one message per dat and
			// halo kind (CA without grouping), re-paying pack and staging
			// from the failure-detection time.
			cs.FallbackUngrouped++
			b.stats.Faults.FallbackUngrouped++
			res2 := b.exchange(specs, false)
			post2 := make([]float64, len(post))
			for r := range post2 {
				post2[r] = b.postTime(max(restart, post[r]), res2.sendBytes[r])
			}
			d2 := b.deliver(post2, res2.msgs, name, maxR, proto)
			if d2.giveups == 0 {
				res, post, d = res2, post2, d2
				grouped = false
				recovered = true
			} else {
				restart = d2.restartTime(b.retryTimeout)
			}
		}
		if !recovered {
			// Rung 3: re-execute the whole window as per-loop OP2 code
			// from the failure-detection time, with the pre-chain
			// validity restored so every loop re-exchanges its depth-1
			// halos (per-loop giveups are terminal: see runStandard).
			cs.FallbackPerLoop++
			b.stats.Faults.FallbackPerLoop++
			for r := range b.clock {
				b.clock[r] = max(b.clock[r], restart)
			}
			copy(b.valid, savedValid)
			fallback()
			return
		}
	}

	b.forEachRank(b.fnChainExec)
	b.chargeWindow(name, loops, g, res, d.recs, post, grouped)

	for _, l := range loops {
		b.updateValidity(l)
	}

	cs.CAExecutions++
	cs.HE = append(cs.HE[:0], plan.HE...)
	cs.Msgs += int64(len(res.msgs))
	cs.Bytes += res.bytes
	cs.DatsExchanged += int64(res.nDats)
	cs.MaxMsgBytes = max(cs.MaxMsgBytes, res.maxMsgBytes)
	// The neighbour count is over distinct (From, To) pairs: with
	// NoGroupedMsgs a rank sends several per-dat messages to the same
	// neighbour, and counting raw messages would inflate the p term of
	// Equation (3).
	cs.MaxNeighbours = max(cs.MaxNeighbours, res.maxNeigh)
	for _, sent := range res.sendBytes {
		cs.MaxRankBytes = max(cs.MaxRankBytes, sent)
	}
	lp := sc.lp[:n]
	coreIters, haloIters := b.windowIters(lp, g)
	cs.CoreIters += coreIters
	cs.HaloIters += haloIters
	// Equation (3) prediction from this execution's measured parameters:
	// per-loop max core/halo iterations across ranks, the grouped message
	// size m^r, and the unpack cost c (zero when grouping is disabled).
	var unpack float64
	if grouped {
		unpack = float64(res.maxMsgBytes) / m.PackRate
	}
	net := b.modelNet(unpack)
	net.Overlap = overlap
	cs.Predicted += model.TCAChain(model.ChainParams{
		Loops:        lp,
		Neighbours:   float64(res.maxNeigh),
		GroupedBytes: float64(res.maxMsgBytes),
	}, net)
	cs.Time += b.maxClock() - t0
}

// chainPrepRank is the first fork of a CA chain execution: derive rank r's
// per-loop core and halo iteration counts (splitLoop, under the plan's halo
// extensions) and its send-post time. Parameters arrive via Backend scratch.
func (b *Backend) chainPrepRank(w, r int) {
	sc := &b.scr
	lay := b.layouts[r]
	cores, halos := sc.chainCores[r], sc.chainHalos[r]
	for i, l := range sc.chainLoops {
		sp := splitLoop(lay.SetL(l.Set), sc.chainHE[i], sc.chainHN[i], i, sc.chainExch)
		cores[i], halos[i] = sp.core, sp.halo()
	}
	sc.chainPost[r] = b.postTime(b.clock[r], sc.chainSend[r])
}

// chainExecRank is the data pass of a CA chain execution on rank r, as
// worker w: each loop of the compiled program runs completely, in chain
// order, in the canonical element order (see loopProgram.run) — exactly the
// sequence the sequential reference and the per-loop path apply. Algorithm
// 2's core/halo phase split (lines 8-18) lives entirely in the caller's
// virtual-time arithmetic; splitting the data pass too would re-order float
// accumulations per rank and policy.
func (b *Backend) chainExecRank(w, r int) {
	sc := &b.scr
	ws := &b.wsc[w]
	prog := sc.chainProg.ranks[r]
	for i, l := range sc.chainLoops {
		lp := &prog[i]
		lp.run(l, growSlices(&ws.views, len(lp.slots)))
	}
}
