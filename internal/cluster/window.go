package cluster

import (
	"op2ca/internal/core"
	"op2ca/internal/model"
	"op2ca/internal/netsim"
	"op2ca/internal/obs"
)

// An executed window is one exchange and the loops that consume it: a CA
// chain under Algorithm 2, or — Algorithm 1 being Algorithm 2 with one loop
// and per-dat messages, as Equation (1) is Equation (3) at n = 1, c = 0 — a
// standalone loop. This file is everything the two executors share: the post
// time of a window's sends (postTime), the rank timeline after its delivery
// (chargeWindow) and the window's Equation (1)/(3) iteration parameters
// (windowIters), over one split (splitLoop) published in one scratch
// (execScratch's chain* fields; a per-loop window uses column 0). What each
// executor still owns, on purpose: its needs derivation (standardNeeds'
// dirty-bit rule against the plan's Required), global reductions and their
// Reduce spans (a chain has none), the degradation ladder (a per-loop giveup
// is terminal: there is no rung below it), the delivery protocol (per-loop
// exchanges are bulk only — they are the calibration baseline, see
// overlapFor), its stats row type (LoopStats, ChainStats) and the data pass
// (runLoopOnRank interpreted, chainExecRank compiled: ROADMAP 3a slice 2).

// postTime is when a rank that starts packing sendBytes at from has its
// messages ready to post: packed, and staged to the host unless GPUDirect.
func (b *Backend) postTime(from float64, sendBytes int64) float64 {
	m := b.cfg.Machine
	t := from + float64(sendBytes)/m.PackRate
	if !b.cfg.GPUDirect {
		t += m.StageTime(sendBytes)
	}
	return t
}

// chargeWindow charges one executed window to the rank clocks and the
// tracer: per rank, every loop's core segment (S^c iterations at g[i], from
// the post time), the wait for the last inbound message with its host-side
// staging and — grouped only — unpack, then every loop's halo segment (S^h).
// The split comes from scratch (chainCores / chainHalos, as the prep fork
// published it); recs is the delivery's timeline of res.msgs and name the
// exchange's owner in the trace. A kernel launch is charged per segment as
// t + (launch + g·S^c) for core and (t + launch) + g·S^h for halo — the
// association the chain executor has always used; halo segments pay their
// second launch only when the window exchanged (without an exchange all of
// a loop is core, one launch).
func (b *Backend) chargeWindow(name string, loops []core.Loop, g []float64,
	res *exchangeSchedule, recs []netsim.Record, post []float64, grouped bool) {
	sc := &b.scr
	m := b.cfg.Machine
	launch := m.LaunchOverhead()
	exchanging := len(res.msgs) > 0
	gpuDirect := b.cfg.GPUDirect && m.GPU != nil
	recvLast := sc.chainRecvLast
	clear(recvLast)
	for i, msg := range res.msgs {
		recvLast[msg.To] = max(recvLast[msg.To], recs[i].Arrival)
	}
	traced := b.tracer.Enabled()
	var inbound [][]int
	if traced && exchanging {
		inbound = b.emitSendSpans(name, res, recs)
	}
	// coreSeg and haloSeg charge loop i's core and halo segment on rank r
	// from t and return where it ends.
	coreSeg := func(r, i int, t float64) float64 {
		n := sc.chainCores[r][i]
		end := t + (launch + g[i]*float64(n))
		if traced && n > 0 {
			b.tracer.Emit(int32(r), obs.TrackExec, obs.Compute, loops[i].Kernel.Name, t, end, 0)
		}
		return end
	}
	haloSeg := func(r, i int, t float64) float64 {
		n := sc.chainHalos[r][i]
		if n == 0 {
			return t
		}
		end := t
		if exchanging {
			end += launch
		}
		end += g[i] * float64(n)
		if traced {
			b.tracer.Emit(int32(r), obs.TrackExec, obs.Redundant, loops[i].Kernel.Name, t, end, 0)
		}
		return end
	}
	for r := range b.clock {
		// Unpacking a grouped message into the per-dat arrays is the c term
		// of Equation (3); per-dat messages land directly and pay nothing.
		var unpack float64
		if grouped {
			unpack = float64(res.recvBytes[r]) / m.PackRate
		}
		if gpuDirect {
			// GPUDirect transfers do not overlap with compute kernels (the
			// paper's observation on Cirrus): all computation waits for the
			// exchange, then runs back to back, loop by loop.
			t := max(post[r], recvLast[r])
			if traced && exchanging {
				b.emitWaitSpans(name, r, post[r], inbound[r], res.msgs, recs, post)
			}
			if traced && unpack > 0 {
				b.tracer.Emit(int32(r), obs.TrackExec, obs.Unpack, name, t, t+unpack, res.recvBytes[r])
			}
			t += unpack
			for i := range loops {
				t = haloSeg(r, i, coreSeg(r, i, t))
			}
			b.clock[r] = t
			continue
		}
		t := post[r]
		for i := range loops {
			t = coreSeg(r, i, t)
		}
		afterCore := t
		if recvLast[r] > 0 {
			if traced {
				stageEnd := recvLast[r]
				if m.GPU != nil {
					stageEnd = m.GPU.TraceStage(b.tracer, int32(r), name+" h2d", recvLast[r], res.recvBytes[r])
				}
				if unpack > 0 {
					b.tracer.Emit(int32(r), obs.TrackExec, obs.Unpack, name, stageEnd, stageEnd+unpack, res.recvBytes[r])
				}
			}
			t = max(t, recvLast[r]+m.StageTime(res.recvBytes[r])+unpack)
		}
		if traced && exchanging {
			b.emitWaitSpans(name, r, afterCore, inbound[r], res.msgs, recs, post)
		}
		for i := range loops {
			t = haloSeg(r, i, t)
		}
		b.clock[r] = t
	}
}

// windowIters is the one derivation of a window's Equation (1)/(3) iteration
// parameters from the split in scratch: lp[i] becomes loop i's G (g[i]) and
// the largest core and halo iteration count any rank runs for it; the
// results are the totals over ranks and loops. The caller owns lp: the chain
// executor passes scratch the tuner's oracle reads back, a per-loop window
// its own.
func (b *Backend) windowIters(lp []model.LoopParams, g []float64) (coreIters, haloIters int64) {
	sc := &b.scr
	for i := range lp {
		lp[i] = model.LoopParams{G: g[i]}
	}
	for r := range b.clock {
		for i := range lp {
			c, h := sc.chainCores[r][i], sc.chainHalos[r][i]
			coreIters += int64(c)
			haloIters += int64(h)
			lp[i].CoreIters = max(lp[i].CoreIters, float64(c))
			lp[i].HaloIters = max(lp[i].HaloIters, float64(h))
		}
	}
	return coreIters, haloIters
}
