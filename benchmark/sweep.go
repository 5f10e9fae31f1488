package main

import (
	"fmt"
	"strings"
	"time"

	"op2ca/internal/bench"
	"op2ca/internal/cluster"
)

// sweepExperiments are the paper experiments of paper-sweep, in run order:
// 78 backend lifetimes per pass, Hydra and MG-CFD, ARCHER2 and Cirrus.
var sweepExperiments = []string{"table5", "fig12", "table2", "fig13"}

// sweepOp is one op of paper-sweep: one backend lifetime inside the harness,
// delimited by consecutive Observe callbacks (mesh and partition for a
// point's first backend, cluster.New, warm-up, the measured iterations).
type sweepOp struct {
	experiment, label string
	ca                bool
	hostMS, rawMS     float64
	virtS             float64
	start, end        time.Time
}

// sweeper drives the harness through its own entry point and measures it
// from the Observe hook. The hook's own work (calibration, checksums, clock
// reads) falls between ops, outside every op's time; its allocations are
// counted so they can be taken out of the total.
type sweeper struct {
	clock     *hostClock
	ops       []sweepOp
	hookAlloc uint64
	bad       []string // points whose OP2 and CA states differ

	experiment string
	mark       time.Time
	lastSum    string
}

func (s *sweeper) observe(label string, b *cluster.Backend) {
	now := time.Now()
	a0 := totalAlloc()
	ca := b.Name() == "cluster-ca"
	raw := ms(now.Sub(s.mark))
	s.ops = append(s.ops, sweepOp{experiment: s.experiment, label: label, ca: ca,
		hostMS: s.clock.scale(raw), rawMS: raw, virtS: b.MaxClock(), start: s.mark, end: now})
	// The harness runs each point's OP2 backend, then its CA backend, on the
	// same mesh and partition: equal checksums are the repo's bitwise oracle.
	sum := b.ChecksumDats()
	if ca && sum != s.lastSum {
		s.bad = append(s.bad, label)
	}
	s.lastSum = sum
	s.hookAlloc += totalAlloc() - a0
	s.mark = time.Now()
}

// pass runs the four experiments once under one generated configuration.
func (s *sweeper) pass(p sweepPass, rec *recorder) {
	cfg := bench.Config{
		Nodes8M: p.Nodes8M, Nodes24M: 3 * p.Nodes8M, RankScale: p.RankScale, Iters: 2,
		Parallel: false, AutoTune: p.Tuned, Overlap: p.Tuned, Observe: s.observe,
	}
	registry := bench.Experiments()
	for _, name := range sweepExperiments {
		s.experiment = name
		id := rec.begin("bench." + name)
		s.mark = time.Now()
		registry[name](cfg)
		rec.end(id)
	}
}

// sweepWarm is paper-sweep's set-up: what happens before the first point can
// start. The harness has no set-up of its own — every op pays for its mesh,
// partition and backend — so this is the registry lookup plus one toy-sized
// experiment that faults in the code and grows the heap.
func sweepWarm() {
	bench.Experiments()["table5"](bench.Config{Nodes8M: 300, Nodes24M: 900, RankScale: 0.0005, Iters: 1})
}

func sweepTimed(in inputs, ctx *runCtx) (*endToEnd, error) {
	e := ctx.newEndToEnd(nil)
	for i := 0; i < ctx.setups; i++ {
		e.timeSetup(sweepWarm)
	}
	e.sampleHeap()
	s := &sweeper{clock: e.clock}
	a0, start := totalAlloc(), time.Now()
	// Whole pairs of passes only, so every run measures the same mix of
	// points; after the first, a pair starts only if it is expected to fit.
	for pair := 0.0; len(s.ops) == 0 || time.Since(start).Seconds()+pair <= ctx.seconds; {
		t0 := time.Now()
		for _, p := range in.Sweep {
			s.pass(p, nil)
			e.sampleHeap()
		}
		pair = time.Since(t0).Seconds()
	}
	e.allocBytes = totalAlloc() - a0 - s.hookAlloc
	s.fill(e)
	return e, nil
}

// fill moves the sweep's ops and checks into the end-to-end record. The ops
// tile the harness's run time, so their sum is the wall time.
func (s *sweeper) fill(e *endToEnd) {
	for _, op := range s.ops {
		e.addOp(op.hostMS, op.rawMS)
		e.virtS += op.virtS
		if op.ca {
			e.caVirtS += op.virtS
		} else {
			e.op2VirtS += op.virtS
		}
	}
	e.wallS = sum(e.opMS) / 1e3
	e.virtOps = len(s.ops)
	// A point whose CA state differs from its OP2 state fails both its ops.
	e.failed = 2 * len(s.bad)
	for _, label := range s.bad {
		e.notes = append(e.notes, "OP2 and CA checksums differ at "+label)
	}
}

// sweepTraced runs the static pass with spans around every experiment and
// op, then the per-layer ledger on the representative Hydra point.
func sweepTraced(in inputs, ctx *runCtx, rec *recorder) (*metricSet, *endToEnd, error) {
	sweepWarm()
	e := ctx.newEndToEnd(rec)
	s := &sweeper{clock: e.clock}
	s.pass(in.Sweep[0], rec)
	s.fill(e)

	m := newMetricSet(perLayerDefs)
	parents := map[string]int{}
	for i, sp := range rec.spans {
		parents[strings.TrimPrefix(sp.Name, "bench.")] = i
	}
	var gpuMS []float64
	gpuVirt, expS := 0.0, map[string]float64{}
	// pointMS is the host time of the representative point's two backends.
	pointMS, pointLabel := 0.0, fmt.Sprintf("mesh=%d paper-nodes=64 ", in.Sweep[0].Nodes8M)
	for i, op := range s.ops {
		rec.add("bench.op:"+op.label, op.start, op.end, parents[op.experiment], int64(i+1))
		expS[op.experiment] += op.hostMS / 1e3
		if op.experiment == "fig13" { // the sweep's Cirrus points
			gpuMS = append(gpuMS, op.hostMS)
			gpuVirt += op.virtS
		}
		if op.experiment == "table5" && strings.Contains(op.label, pointLabel) {
			pointMS += op.hostMS
		}
	}
	if err := ledger(in.Problem, ctx, rec, m, e); err != nil {
		return nil, nil, err
	}
	for _, name := range sweepExperiments {
		m.set("bench."+name+"_s", expS[name])
	}
	// The sweep has Cirrus ops of its own: they replace the ledger's.
	m.set("gpusim.op_ms_p50", median(gpuMS))
	m.set("gpusim.virt_ms_per_op", ratio(gpuVirt*1e3, float64(len(gpuMS))))
	setupMS := m.values["mesh.gen_ms"] + m.values["partition.rib_ms"] + 2*m.values["cluster.new_ms"]
	m.set("bench.setup_frac", ratio(setupMS, pointMS))
	return m, e, nil
}
