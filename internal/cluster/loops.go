package cluster

import (
	"op2ca/internal/core"
	"op2ca/internal/model"
	"op2ca/internal/netsim"
	"op2ca/internal/obs"
)

// runStandard executes one loop the standard OP2 way (Algorithm 1): exchange
// dirty depth-1 halos, run core iterations while messages are in flight,
// wait, then run the remaining owned and import-execute iterations — a
// window of one loop, ungrouped and bulk (see window.go for what that shares
// with the chain executor and what it does not).
func (b *Backend) runStandard(l core.Loop, chainName string) {
	t0 := b.maxClock()
	m := b.cfg.Machine

	specs := b.filterNeeds(standardNeeds(l))
	res := b.exchange(specs, false)
	if ct := b.tuneSampling; ct != nil && chainName == ct.chain {
		ct.noteExchange(specs, res.sendBytes, m.PackRate)
	}

	// The fork's parameters and the split and post times it derives live in
	// the window scratch (column 0): the fork function is prebuilt (no
	// closure per call) and nothing is allocated per execution.
	gbl := b.prepareGlobals(l)
	sc := &b.scr
	sc.stdLoop, sc.stdGbl = l, gbl
	sc.chainExch, sc.chainSend = len(res.msgs) > 0, res.sendBytes
	b.forEachRank(b.fnStdRank)
	sc.stdGbl = nil

	// Loops of a chain executed per-loop (CA off or infeasible) are
	// attributed to the chain, so per-chain comparisons line up.
	key := l.Kernel.Name
	if chainName != "" {
		key = chainName + "/" + l.Kernel.Name
	}
	// Per-loop exchanges are the bottom rung of the degradation ladder:
	// messages that exhaust the retransmission budget are treated as
	// delivered by a reliable transport at the final attempt's arrival
	// (counted as giveups), and execution proceeds.
	// Always bulk delivery (never overlapped): per-loop exchanges are the
	// probe/calibration baseline, and their spans must decompose as
	// h*L + m/B for the network fit (see overlapFor).
	recs := b.deliver(sc.chainPost, res.msgs, key, b.maxRetries, netsim.Bulk).recs
	loops, g := [1]core.Loop{l}, [1]float64{m.IterTime(l.Kernel)}
	b.chargeWindow(key, loops[:], g[:], res, recs, sc.chainPost, false)

	var reduceTime float64
	if bytes := b.reduceGlobals(l, gbl); bytes > 0 {
		reduceTime = b.net.ReduceTime(b.cfg.NParts, bytes)
		t := b.maxClock() + reduceTime
		if b.tracer.Enabled() {
			// The last rank to enter the allreduce binds everyone: emit a
			// reduce edge from the straggler to each other rank so the
			// critical path can cross onto its timeline.
			rm := 0
			for r := 1; r < len(b.clock); r++ {
				if b.clock[r] > b.clock[rm] {
					rm = r
				}
			}
			for r := range b.clock {
				b.tracer.Emit(int32(r), obs.TrackExec, obs.Reduce, key, b.clock[r], t, bytes)
				if r != rm {
					b.tracer.EmitEdge(obs.Edge{
						Kind: obs.EdgeReduce, Name: key, From: int32(rm), To: int32(r),
						Post: b.clock[rm], Begin: b.clock[rm], End: t,
						Ready: b.clock[r], Bytes: bytes,
					})
				}
			}
		}
		for r := range b.clock {
			b.clock[r] = t
		}
	}

	b.updateValidity(l)
	b.recordLoopStats(l, chainName, key, res, g[:], t0, reduceTime)
}

// recordLoopStats books one per-loop window into its LoopStats row (key) and,
// when the tuner is sampling the loop's chain, into the calibration.
func (b *Backend) recordLoopStats(l core.Loop, chainName, key string, res *exchangeSchedule,
	g []float64, t0, reduceTime float64) {
	ls := b.stats.loop(key)
	ls.Executions++
	ls.Msgs += int64(len(res.msgs))
	ls.DatsExchanged += int64(res.nDats)
	ls.Bytes += res.bytes
	ls.MaxMsgBytes = max(ls.MaxMsgBytes, res.maxMsgBytes)
	ls.MaxNeighbours = max(ls.MaxNeighbours, res.maxNeigh)
	var lp [1]model.LoopParams
	coreIters, haloIters := b.windowIters(lp[:], g)
	ls.CoreIters += coreIters
	ls.HaloIters += haloIters
	ls.Time += b.maxClock() - t0
	// Equation (1) prediction from this execution's measured parameters:
	// the per-execution building block of the model-vs-measured report.
	p := lp[0]
	p.NDats, p.Neighbours, p.MsgBytes = float64(res.nDats), float64(res.maxNeigh), float64(res.maxMsgBytes)
	ls.Predicted += reduceTime + model.TOp2Loop(p, b.modelNet(0))
	if ct := b.tuneSampling; ct != nil && chainName == ct.chain {
		p.G = 0 // the calibration solves for g
		ct.noteLoop(l.Kernel.Name, p, b.maxClock()-t0-reduceTime)
	}
}

// stdRank is runStandard's per-rank fork body: one canonical-order pass
// over the loop's full executable range (the core/halo split shapes the
// virtual-time overlap only, never the order data effects apply in — see
// runLoopOnRank), publishing the split and the rank's send-post time.
// Parameters arrive via Backend scratch, published before the fork.
func (b *Backend) stdRank(w, r int) {
	sc := &b.scr
	l := sc.stdLoop
	// Standalone, a loop with indirection runs one execute shell (he = 1)
	// and an all-direct loop its owned elements (ExecEnd(0) is NOwned).
	he := 0
	if l.HasIndirection() {
		he = 1
	}
	sp := splitLoop(b.layouts[r].SetL(l.Set), he, 0, 0, sc.chainExch)
	var gs [][]float64
	if sc.stdGbl != nil {
		gs = sc.stdGbl[r]
	}
	b.runLoopOnRank(w, r, l, 0, sp.end, gs)
	sc.chainCores[r][0], sc.chainHalos[r][0] = sp.core, sp.halo()
	sc.chainPost[r] = b.postTime(b.clock[r], sc.chainSend[r])
}

var _ core.Backend = (*Backend)(nil)
