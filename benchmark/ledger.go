package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"op2ca/internal/ca"
	"op2ca/internal/checkpoint"
	"op2ca/internal/cluster"
	"op2ca/internal/halo"
	"op2ca/internal/machine"
	"op2ca/internal/netsim"
	"op2ca/internal/obs"
	"op2ca/internal/partition"
)

// tracedOps caps the ops run under obs.Tracer: the virtual-time tracer keeps
// every span of every rank, so its memory grows with ops x ranks x loops.
const tracedOps = 40

// problemTraced is the traced run of mgcfd-compute and mgcfd-ranks: the
// workload is its problem, so the ledger is the whole run.
func problemTraced(in inputs, ctx *runCtx, rec *recorder) (*metricSet, *endToEnd, error) {
	m, e := newMetricSet(perLayerDefs), ctx.newEndToEnd(rec)
	return m, e, ledger(in.Problem, ctx, rec, m, e)
}

// counts are the Stats() totals the cluster rows are differences of.
type counts struct {
	core, halo, msgs, bytes int64
}

func countsOf(st *cluster.Stats) counts {
	var c counts
	for _, l := range st.Loops {
		c.core, c.halo, c.msgs, c.bytes = c.core+l.CoreIters, c.halo+l.HaloIters, c.msgs+l.Msgs, c.bytes+l.Bytes
	}
	for _, ch := range st.Chains {
		c.core, c.halo, c.msgs, c.bytes = c.core+ch.CoreIters, c.halo+ch.HaloIters, c.msgs+ch.Msgs, c.bytes+ch.Bytes
	}
	return c
}

// ledgerRun is what the phases of the ledger share.
type ledgerRun struct {
	p     problem
	ctx   *runCtx
	rec   *recorder
	m     *metricSet
	e     *endToEnd
	clock *hostClock

	r      *run         // the warm plain backend the set-up phase leaves
	plain  *spanBackend // the timing wrapper the main loop puts around it
	caSum  string       // its state after the first epoch
	baseMS float64      // its median op time
}

// ledger fills the per-layer rows that every workload has, on problem p: each
// layer is measured from outside, by timing calls into its public functions
// with the problem's arguments and by reading the counters the backends
// expose. It takes about ctx.seconds. Ops it runs are added to e, and a failed
// output check fails them.
func ledger(p problem, ctx *runCtx, rec *recorder, m *metricSet, e *endToEnd) error {
	l := &ledgerRun{p: p, ctx: ctx, rec: rec, m: m, e: e, clock: e.clock}
	var gcBefore runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	for _, phase := range []func() error{l.setupPath, l.mainLoop, l.variants, l.standAlone, l.checkpoints} {
		if err := phase(); err != nil {
			return err
		}
	}
	var gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcAfter)
	m.set("host.calib_ms_p50", median(l.clock.calMS))
	m.set("host.peak_rss_mb", peakRSSMB())
	m.set("host.gc_cycles", float64(gcAfter.NumGC-gcBefore.NumGC))
	m.set("host.gc_pause_ms", float64(gcAfter.PauseTotalNs-gcBefore.PauseTotalNs)/1e6)
	m.set("host.nproc", float64(runtime.NumCPU()))
	return nil
}

// setupPath runs the set-up path layer by layer, three times over, and keeps
// the last backend.
func (l *ledgerRun) setupPath() error {
	reps := 3
	if l.ctx.smoke {
		reps = 1
	}

	var (
		gen, kway, rib, own, build, buildMB, newMS, warm []float64
		g                                                *geometry
		in                                               *instance
		layouts                                          []*halo.Layout
		r                                                *run
	)
	p, m, clock, rec := l.p, l.m, l.clock, l.rec
	for i := 0; i < reps; i++ {
		rec.nextOp()
		root := rec.begin("setup")
		gen = append(gen, clock.time("mesh.gen", func() { g = p.genMesh() }))
		var byKWay, byRIB partition.Assignment
		kway = append(kway, clock.time("partition.kway", func() { byKWay = partition.KWay(g.adj, p.Ranks) }))
		rib = append(rib, clock.time("partition.rib", func() { byRIB = partition.RIB(g.mesh.Coords, 3, p.Ranks) }))
		if g.assign = byKWay; p.Part == "rib" {
			g.assign = byRIB
		}
		in = p.newInstance(g)

		var owners [][]int32
		var err error
		own = append(own, clock.time("halo.ownership", func() {
			owners, err = halo.DeriveOwnership(in.prog, in.primary, g.assign)
		}))
		if err != nil {
			return err
		}
		build = append(build, clock.time("halo.build", func() {
			a0 := totalAlloc()
			layouts = halo.Build(in.prog, owners, p.Ranks, 2, in.maxChain)
			buildMB = append(buildMB, float64(totalAlloc()-a0)/1e6)
		}))

		cfg := p.config(in, g)
		var cb *cluster.Backend
		newMS = append(newMS, clock.time("cluster.new", func() { cb, err = cluster.New(cfg) }))
		if err != nil {
			return err
		}
		r = &run{p: p, in: in, g: g, cfg: cfg, cb: cb, b: cb}
		warm = append(warm, clock.time("cluster.warm_op", r.warm))
		rec.end(root)
	}
	quality := partition.Evaluate(g.adj, g.assign, p.Ranks)
	nEdges := 0
	for _, row := range g.adj {
		nEdges += len(row)
	}
	elems, owned, exec := 0, 0.0, 0.0
	for _, s := range in.prog.Sets {
		elems += s.Size
	}
	for _, sp := range halo.Profile(in.prog, layouts) {
		owned += sp.AvgOwned
		exec += sum(sp.AvgExec)
	}
	m.set("mesh.gen_ms", median(gen))
	m.set("mesh.elems", float64(elems))
	m.set("partition.kway_ms", median(kway))
	m.set("partition.rib_ms", median(rib))
	m.set("partition.edge_cut_frac", ratio(float64(quality.EdgeCut), float64(nEdges/2)))
	m.set("partition.imbalance_x", quality.Imbalance)
	m.set("halo.ownership_ms", median(own))
	m.set("halo.build_ms", median(build))
	m.set("halo.build_alloc_mb", median(buildMB))
	m.set("halo.exec_frac", ratio(exec, owned))
	m.set("cluster.new_ms", median(newMS))
	m.set("cluster.new_self_ms", median(newMS)-median(own)-median(build))
	m.set("cluster.warm_op_ms", median(warm))
	l.r = r
	return nil
}

// mainLoop runs the op. The plain backend runs behind a wrapper that only
// times; a second backend with obs.Tracer on runs behind one that also emits
// spans. Their epochs alternate, and the ratio of their op times is the
// tracing overhead.
func (l *ledgerRun) mainLoop() error {
	p, ctx, m, e, clock, rec, r := l.p, l.ctx, l.m, l.e, l.clock, l.rec, l.r
	plain := newSpanBackend(r.cb, nil)
	r.b, l.plain = plain, plain
	r.epoch(untimed) // verification epoch, as in the timed run
	l.caSum = r.cb.ChecksumDats()

	tracer := obs.New()
	tcfg := r.cfg
	tcfg.Tracer = tracer
	tr, err := p.start(r.in, r.g, tcfg)
	if err != nil {
		return err
	}
	tr.b = newSpanBackend(tr.cb, rec)

	var plainMS, plainRaw, tracedMS []float64
	c0 := countsOf(r.cb.Stats())
	hit0, miss0, _ := r.cb.PlanCacheStats()
	span0 := tracer.Len()
	plain.chainNS, plain.loopNS = 0, 0
	for start := time.Now(); len(plainMS) == 0 || time.Since(start).Seconds() < ctx.seconds/4; {
		r.epoch(func(op func()) {
			plainMS = append(plainMS, clock.time("", op))
			plainRaw = append(plainRaw, clock.lastRaw)
		})
		if len(tracedMS) < tracedOps {
			tr.epoch(func(op func()) {
				rec.nextOp()
				tracedMS = append(tracedMS, clock.time("op", op))
			})
		}
	}
	nOps := float64(len(plainMS))
	e.opMS, e.rawMS = append(e.opMS, plainMS...), append(e.rawMS, plainRaw...)
	c1 := countsOf(r.cb.Stats())
	hit1, miss1, _ := r.cb.PlanCacheStats()
	iters := float64(c1.core - c0.core + c1.halo - c0.halo)
	baseMS := median(plainMS)
	l.baseMS = baseMS
	// The wrapper's totals are on the raw clock: report them as their share
	// of the ops' raw time, applied to the ops' calibrated time.
	perOp := func(d time.Duration) float64 { return ratio(ms(d), sum(plainRaw)) * sum(plainMS) / nOps }
	m.set("cluster.op_ms_p50", baseMS)
	m.set("host.raw_op_ms_p50", median(plainRaw))
	m.set("cluster.chain_ms_per_op", perOp(plain.chainNS))
	m.set("cluster.loop_ms_per_op", perOp(plain.loopNS))
	m.set("cluster.core_iters_per_op", float64(c1.core-c0.core)/nOps)
	m.set("cluster.halo_iters_per_op", float64(c1.halo-c0.halo)/nOps)
	m.set("cluster.redundant_frac", ratio(float64(c1.halo-c0.halo), iters))
	m.set("cluster.msgs_per_op", float64(c1.msgs-c0.msgs)/nOps)
	m.set("cluster.bytes_per_op", float64(c1.bytes-c0.bytes)/nOps)
	m.set("cluster.msgs_per_miter", ratio(float64(c1.msgs-c0.msgs), iters/1e6))
	m.set("cluster.plan_hit_frac", ratio(float64(hit1-hit0), float64(hit1-hit0+miss1-miss0)))
	m.set("obs.trace_overhead_x", ratio(median(tracedMS), baseMS))
	m.set("obs.spans_per_op", float64(tracer.Len()-span0)/float64(len(tracedMS)))
	m.set("model.err_pct", modelErrPct(r.cb.Stats()))
	if prof := tr.cb.Profile(); prof != nil {
		path := prof.Path
		m.set("obs.crit_compute_frac", ratio(path.ByKind[obs.Compute], path.Length))
		m.set("obs.crit_redundant_frac", ratio(path.ByKind[obs.Redundant], path.Length))
		m.set("obs.crit_pack_frac", ratio(path.ByKind[obs.Pack]+path.ByKind[obs.Unpack], path.Length))
		m.set("obs.crit_wait_frac", ratio(path.ByKind[obs.Wait]+path.ByKind[obs.Send], path.Length))
		hidden := 0.0
		for _, c := range prof.Comm {
			hidden += c.WaitHidden
		}
		// The traced backend's epoch holds its warm op and every traced op.
		m.set("obs.hidden_ms_per_op", hidden*1e3/float64(len(tracedMS)+1))
		m.set("obs.imbalance_x", prof.Imbalance.Ratio)
	}
	return nil
}

// variants runs the same problem under one changed knob each, and on the
// sequential reference.
func (l *ledgerRun) variants() error {
	p, ctx, m, e, clock, r, caSum, baseMS := l.p, l.ctx, l.m, l.e, l.clock, l.r, l.caSum, l.baseMS
	// One changed knob each, a fresh warm backend run for whole epochs over a
	// twentieth of the run time. afterFirst, when non-nil, sees the backend
	// after its first epoch.
	variant := func(name string, mod func(*cluster.Config), afterFirst func(*run)) (*run, []float64, error) {
		cfg := r.cfg
		mod(&cfg)
		var v *run
		var err error
		clock.time("cluster.variant:"+name, func() { v, err = p.start(r.in, r.g, cfg) })
		if err != nil {
			return nil, nil, err
		}
		var opMS []float64
		for start := time.Now(); len(opMS) == 0 || time.Since(start).Seconds() < ctx.seconds/20; {
			v.epoch(func(op func()) { opMS = append(opMS, clock.time("", op)) })
			if len(opMS) == p.Epoch && afterFirst != nil {
				afterFirst(v)
			}
		}
		return v, opMS, nil
	}
	_, opMS, err := variant("op2", func(c *cluster.Config) { c.CA, c.Overlap = false, false }, func(v *run) {
		// The same warm op and first epoch as the CA backend's.
		if sum := v.cb.ChecksumDats(); sum != caSum {
			e.fail("OP2 state after the first epoch %s differs from CA %s", sum, caSum)
		}
	})
	if err != nil {
		return err
	}
	m.set("cluster.op2_op_ms", median(opMS))
	if _, opMS, err = variant("uncached", func(c *cluster.Config) { c.NoPlanCache = true }, nil); err != nil {
		return err
	}
	m.set("cluster.uncached_ratio_x", ratio(median(opMS), baseMS))
	v, opMS, err := variant("pool", func(c *cluster.Config) { c.Parallel = true }, nil)
	if err != nil {
		return err
	}
	v.cb.Close() // a Parallel backend owns worker goroutines
	m.set("cluster.pool_speedup_x", ratio(baseMS, median(opMS)))
	if v, opMS, err = variant("cirrus", func(c *cluster.Config) { c.Machine = machine.Cirrus() }, nil); err != nil {
		return err
	}
	m.set("gpusim.op_ms_p50", median(opMS))
	m.set("gpusim.virt_ms_per_op", (v.cb.MaxClock()-v.warmClock)*1e3/float64(len(opMS)))
	if v, _, err = variant("autotune", func(c *cluster.Config) { c.AutoTune = true }, nil); err != nil {
		return err
	}
	replans := 0
	for _, d := range v.cb.Stats().AutoTune.Decisions {
		replans += d.Replans
	}
	m.set("autotune.decisions", float64(len(v.cb.Stats().AutoTune.Decisions)))
	m.set("autotune.replans", float64(replans))

	var seqMS []float64
	seqSum := p.seqEpoch(r.g, func(op func()) { seqMS = append(seqMS, clock.time("core.seq_op", op)) })
	if seqSum != caSum {
		e.fail("CA state after the first epoch %s differs from the sequential reference %s", caSum, seqSum)
	}
	m.set("core.seq_op_ms", median(seqMS))
	m.set("cluster.seq_ratio_x", ratio(baseMS, median(seqMS)))
	return nil
}

// standAlone times the inspector and the network model by themselves.
func (l *ledgerRun) standAlone() error {
	p, m, clock, r, plain := l.p, l.m, l.clock, l.r, l.plain
	// The inspector on each chain's loops as the wrapper first saw them, with
	// the configured halo extensions.
	var err error
	const inspectReps = 200
	inspectUS, maxHE := 0.0, 0
	for _, name := range plain.chainOrder {
		loops := plain.chains[name]
		var he []int
		if cc := r.in.chains.Get(name); cc != nil {
			if he, err = cc.HEOverrides(len(loops)); err != nil {
				return err
			}
		}
		var plan ca.Plan
		inspectUS += clock.time("ca.inspect:"+name, func() {
			for i := 0; i < inspectReps; i++ {
				plan, err = ca.Inspect(name, loops, he)
			}
		}) * 1e3 / inspectReps
		if err != nil {
			return err
		}
		for _, h := range plan.HE {
			maxHE = max(maxHE, h)
		}
	}
	m.set("ca.inspect_us", inspectUS)
	m.set("ca.max_he", float64(maxHE))

	// The network model on a message list shaped like the workload's
	// exchanges: every rank sends its largest message to as many neighbours
	// as the busiest rank has.
	neighbours, msgBytes := 1, int64(8)
	for _, l := range r.cb.Stats().Loops {
		neighbours, msgBytes = max(neighbours, l.MaxNeighbours), max(msgBytes, l.MaxMsgBytes)
	}
	for _, c := range r.cb.Stats().Chains {
		neighbours, msgBytes = max(neighbours, c.MaxNeighbours), max(msgBytes, c.MaxMsgBytes)
	}
	var msgs []netsim.Message
	for from := 0; from < p.Ranks; from++ {
		for k := 1; k <= neighbours; k++ {
			msgs = append(msgs, netsim.Message{From: int32(from), To: int32((from + k) % p.Ranks), Bytes: msgBytes})
		}
	}
	mach := r.cfg.Machine
	net := netsim.Network{Latency: mach.Latency, Bandwidth: mach.Bandwidth,
		EagerThreshold: mach.EagerThreshold, Handshake: mach.Handshake}
	post, busy, arrival := make([]float64, p.Ranks), make([]float64, p.Ranks), make([]float64, 0, len(msgs))
	deliverReps := 1 + 500000/len(msgs)
	perMsg := func(name string, deliver func(arrival, busy, post []float64, msgs []netsim.Message) []float64) float64 {
		return clock.time(name, func() {
			for i := 0; i < deliverReps; i++ {
				arrival = deliver(arrival[:0], busy, post, msgs)
			}
		}) * 1e6 / float64(deliverReps*len(msgs))
	}
	m.set("netsim.deliver_ns_per_msg", perMsg("netsim.deliver", net.DeliverInto))
	m.set("netsim.deliver_ov_ns_per_msg", perMsg("netsim.deliver_overlapped", net.DeliverOverlappedInto))
	return nil
}

// checkpoints times encode alone, a write through a ring on the checkout's
// disk (atomic write, fsync, read-back verification) and restore.
func (l *ledgerRun) checkpoints() error {
	ctx, m, clock, r := l.ctx, l.m, l.clock, l.r
	ringDir := filepath.Join(ctx.outDir, fmt.Sprintf("ledger-ring-%d", os.Getpid()))
	if err := os.MkdirAll(ringDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(ringDir)
	ring, err := checkpoint.NewRing(checkpoint.Spec{Every: 1, Path: filepath.Join(ringDir, "ledger.ck"), Keep: 3})
	if err != nil {
		return err
	}
	var encode, write, restore []float64
	var snapshot bytes.Buffer
	for i := 0; i < 5 && err == nil; i++ {
		snapshot.Reset()
		encode = append(encode, clock.time("checkpoint.encode", func() { err = r.cb.Checkpoint(&snapshot, "iter=1") }))
		if err != nil {
			break
		}
		write = append(write, clock.time("checkpoint.write", func() {
			_, err = ring.Write(func(w io.Writer) error { return r.cb.Checkpoint(w, "iter=1") })
		}))
	}
	for i := 0; i < 3 && err == nil; i++ {
		restore = append(restore, clock.time("checkpoint.restore", func() {
			_, _, err = cluster.Restore(bytes.NewReader(snapshot.Bytes()), r.cfg)
		}))
	}
	if err != nil {
		return err
	}
	m.set("checkpoint.encode_ms", median(encode))
	m.set("checkpoint.write_ms", median(write))
	m.set("checkpoint.restore_ms", median(restore))
	m.set("checkpoint.bytes", float64(snapshot.Len()))
	return nil
}

// modelErrPct is the mean relative error of the Equation (1)/(3) predictions
// against the virtual times the backend measured, over its loops and chains.
func modelErrPct(st *cluster.Stats) float64 {
	var errs []float64
	add := func(predicted, measured float64) {
		if predicted > 0 && measured > 0 {
			errs = append(errs, math.Abs(predicted-measured)/measured*100)
		}
	}
	for _, l := range st.Loops {
		add(l.Predicted, l.Time)
	}
	for _, c := range st.Chains {
		add(c.Predicted, c.Time)
	}
	return ratio(sum(errs), float64(len(errs)))
}
