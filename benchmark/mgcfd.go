package main

import "time"

// mgcfdTimed is the untraced run of mgcfd-compute and mgcfd-ranks: a serial
// closed loop of main-loop iterations on one warm CA backend.
func mgcfdTimed(in inputs, ctx *runCtx) (*endToEnd, error) {
	p := in.Problem
	e := ctx.newEndToEnd(nil)
	var r *run
	for i := 0; i < ctx.setups; i++ {
		r = nil // the previous set-up is garbage before the next is timed
		var err error
		e.timeSetup(func() { r, err = p.setup() })
		if err != nil {
			return nil, err
		}
	}

	// Verification epoch, untimed: its final state is compared with the
	// sequential reference and the OP2 backend below, and its virtual time
	// is the CA side of ca_speedup_x.
	r.epoch(untimed)
	caVirt := r.cb.MaxClock() - r.warmClock
	caSum := r.cb.ChecksumDats()

	e.sampleHeap()
	a0, c0, start := totalAlloc(), r.cb.MaxClock(), time.Now()
	for len(e.opMS) == 0 || time.Since(start).Seconds() < ctx.seconds {
		r.epoch(e.timeOp)
		if len(e.opMS) == heapSampleOps {
			e.sampleHeap()
		}
	}
	// A serial closed loop: the wall time is the ops' time. The few direct
	// loops that re-initialise an epoch and the heap samples are left out.
	e.wallS = sum(e.opMS) / 1e3
	e.allocBytes = totalAlloc() - a0
	e.virtS, e.virtOps = r.cb.MaxClock()-c0, len(e.opMS)

	// Output checks, after the clock has stopped.
	if seqSum := p.seqEpoch(r.g, untimed); seqSum != caSum {
		e.fail("CA state after the first epoch %s differs from the sequential reference %s", caSum, seqSum)
	}
	cfg := r.cfg
	cfg.CA, cfg.Overlap = false, false
	o, err := p.start(r.in, r.g, cfg)
	if err != nil {
		return nil, err
	}
	o.epoch(untimed)
	e.op2VirtS, e.caVirtS = o.cb.MaxClock()-o.warmClock, caVirt
	if sum := o.cb.ChecksumDats(); sum != caSum {
		e.fail("OP2 state after the first epoch %s differs from CA %s", sum, caSum)
	}
	if !allFinite(o.cb, r.in.prog) {
		e.fail("state after the first epoch is not finite")
	}
	return e, nil
}
