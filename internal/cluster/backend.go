package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync/atomic"

	"op2ca/internal/chaincfg"
	"op2ca/internal/core"
	"op2ca/internal/faults"
	"op2ca/internal/halo"
	"op2ca/internal/machine"
	"op2ca/internal/model"
	"op2ca/internal/netsim"
	"op2ca/internal/obs"
)

// Config configures a distributed back-end. It is its own checkpoint
// fingerprint (configFingerprint): a field is in it unless tagged `json:"-"`,
// which marks the host-side fields no result depends on and the ones the
// fingerprint renders its own way.
type Config struct {
	// Prog is the program (global mesh and data) to distribute.
	Prog *core.Program `json:"-"`
	// Primary is the partitioned set; Assign maps its elements to ranks.
	Primary *core.Set `json:"-"`
	Assign  []int32   `json:"-"`
	// NParts is the number of ranks.
	NParts int
	// Depth is the number of halo shells to build; it must cover the
	// largest halo extension of any chain executed with CA. Default 1.
	Depth int
	// MaxChainLen is the longest CA chain to support (core prefixes are
	// precomputed per chain position). Default 8.
	MaxChainLen int
	// Machine parameterises the virtual-time cost model. Default Laptop.
	Machine *machine.Machine
	// CA enables Algorithm 2 for demarcated chains; when false, chains
	// fall back to per-loop execution (the paper's baseline OP2).
	CA bool
	// Chains optionally configures per-chain halo extensions and
	// disables (the paper's Section 3.4 configuration file).
	Chains *chaincfg.Config `json:"-"`
	// Parallel executes ranks on multiple OS threads. Results are
	// identical; only host wall time changes. A Parallel backend owns
	// worker goroutines: its constructor's caller must Close it.
	Parallel bool `json:"-"`
	// Slabs, when non-nil, is where the backend borrows its flat storage —
	// the dats' rank-local values (one slab, carved per rank and dat), the
	// exchange payload slab and ChecksumDats' gather buffer — and where Close
	// returns it, for the next backend built with the same lender. Host-side
	// like Tracer and Parallel: borrowed memory is written before it is read,
	// so no result, clock, stat or snapshot depends on it, and a snapshot of
	// a lent backend restores into an unlent one and back. Nil makes every
	// buffer fresh.
	Slabs SlabLender `json:"-"`
	// NoGroupedMsgs makes CA chains exchange one message per dat and
	// halo kind instead of one grouped message per neighbour (Figure 8
	// disabled). An ablation knob: isolates the message-count reduction
	// from the per-loop-exchange elimination.
	NoGroupedMsgs bool
	// Overlap switches CA chain exchanges to pipelined delivery
	// (netsim.Overlapped, see overlapFor): delivery splits into post
	// and complete halves, so message latencies and rendezvous handshakes
	// pipeline behind payload injection instead of serialising on the
	// sender's NIC, and the receiver's wait is charged only for the
	// fraction of L + m/B its core computation does not hide. Data
	// effects are untouched — results stay bitwise identical to
	// bulk-synchronous execution; only virtual time changes. Individual
	// chains opt in via the configuration file's "overlap" flag even when
	// this is false. Per-loop (OP2) exchanges always run
	// bulk-synchronous: they are the probe/calibration baseline, and
	// their per-dat eager messages have little pipeline to exploit.
	Overlap bool
	// GPUDirect transfers halos GPU-to-GPU without PCIe staging, but —
	// as the paper observed on Cirrus (Section 3.3) — the transfers do
	// not overlap with compute kernels, so core computation no longer
	// hides communication. Only meaningful on GPU machines.
	GPUDirect bool
	// Tracer, when non-nil, records typed spans (compute, pack, send,
	// wait, unpack, redundant, reduce, stage) on per-rank virtual-time
	// tracks as loops execute; see package obs for the exporters. A nil
	// tracer disables tracing at near-zero cost, and tracing never feeds
	// back into the virtual-time arithmetic: traced and untraced runs
	// produce bit-identical clocks and results.
	Tracer *obs.Tracer `json:"-"`
	// Lazy defers loop execution and auto-detects chains at runtime (the
	// paper's stated future work: code-gen automation via lazy
	// evaluation). Loops queue until a synchronisation point — a global
	// reduction, an observation (GatherDat, MaxClock, Stats), an explicit
	// chain boundary, or MaxChainLen loops — then execute as a CA chain
	// when feasible, falling back to per-loop execution otherwise.
	// Requires CA.
	Lazy bool
	// NoPlanCache disables the inspect-once/execute-many memoisation:
	// every chain execution re-runs ca.Inspect, and every exchange — chain
	// or per-loop — builds its pack/unpack schedule from the halo layouts
	// for that one use instead of replaying a memoised one. The executor is
	// the same either way (there is one exchange path), so cached and
	// uncached execution are bit-identical; an ablation and debugging knob.
	NoPlanCache bool
	// Faults, when non-nil, injects deterministic message faults (drops,
	// corruption, delays, stragglers) into every exchange. Lost and
	// corrupt messages are retransmitted with timeout plus exponential
	// backoff, charged in virtual time; a grouped CA exchange that
	// exhausts its retransmission budget degrades (grouped -> per-dat
	// messages -> per-loop OP2 execution) instead of failing. The budget
	// per message is the plan's maxretries clause when present, else 4; the
	// chain configuration file's maxretries option overrides it per chain.
	// Fault injection never touches the simulated data: results stay
	// bit-identical to the fault-free run, only clocks, stats and fault
	// counters differ.
	Faults *faults.Plan `json:"-"`
	// AutoTune hands every eligible chain's execution policy to the
	// model-driven autotuner: calibrate Equations (1)-(4) from measured
	// probe windows, score per-loop OP2 against CA at every feasible halo
	// depth (grouped and ungrouped), run the predicted winner, and re-plan
	// when predictions diverge from measurements. Individual chains opt in
	// via the configuration file's "auto" flag even when this is false.
	// Requires CA. Tuning never changes results — every candidate policy
	// is bit-identical — only virtual time.
	AutoTune bool
}

// validity tracks how many halo shells of a dat currently hold owner-fresh
// values; 0 means dirty (the paper's dirty-bit generalised to depth).
type validity struct{ exec, nonexec int }

// Backend is the distributed-memory OP2 back-end (standard and CA).
type Backend struct {
	cfg     Config
	net     netsim.Network
	owners  [][]int32
	layouts []*halo.Layout
	// dats[rank][datID] is the rank-local storage of each dat; nil once the
	// backend is closed. datSlab is what they are carved from when the
	// storage is borrowed (Config.Slabs), nil otherwise.
	dats    [][][]float64
	datSlab []float64
	valid   []validity
	// written[datID] records that a loop or ScatterDat has written the dat
	// since the backend was constructed: a snapshot holds the owned values of
	// exactly these dats (see checkpoint.go). Set where the dat's halo copies
	// are invalidated; never cleared.
	written []bool
	clock   []float64
	stats   *Stats
	tracer  *obs.Tracer
	// epoch is this backend's trace epoch index (see obs.Tracer.NewEpoch);
	// Profile analyses exactly this epoch when a sweep shares one tracer.
	epoch int32

	rec   *recording
	lazyQ []core.Loop

	// tunes holds per-chain autotuner state; tuneSampling points at the
	// chain whose window is currently executing with calibration sampling
	// on (see autotune.go).
	tunes        map[tuneKey]*chainTune
	tuneSampling *chainTune

	// plans is the execution-plan cache: memoised inspection results,
	// keyed by chain name + structural signature (joined with a NUL so
	// steady-state lookups build the key in scratch bytes without
	// allocating). See plancache.go.
	plans             map[string]*planEntry
	planHits          int64
	planMisses        int64
	planInvalidations int64
	// schedules memoises exchange schedules by spec fingerprint, for chain
	// and per-loop exchanges alike; noExchange is the schedule of an
	// exchange with nothing to send. See exchange.go.
	schedules  map[string]*exchangeSchedule
	noExchange *exchangeSchedule

	// Fault-recovery state: the per-message retransmission budget (see
	// Config.Faults), the delay before a lost or corrupt message is detected
	// (4L of the machine), the backoff base (L: attempt k waits
	// retryBackoff * 2^k beyond the timeout), and the exchange sequence
	// number keying deterministic fault decisions.
	maxRetries   int
	retryTimeout float64
	retryBackoff float64
	faultSeq     uint64
	// crashArmed gates the fault plan's crash clauses, one flag per clause
	// in schedule order: all true on a freshly constructed backend, all
	// false after Restore — a restored run resumes from before the crash
	// point and must not die there again (the real-world analogue: the
	// failed node was replaced). A supervisor re-arms the clauses that have
	// not fired yet via ArmCrashes, so later clauses still fire on the
	// resumed run.
	crashArmed []bool
	// watchdog is the no-progress deadline in virtual seconds (0 = off):
	// if the run's maximum virtual clock advances more than this past
	// lastProgress without an exchange completing, deliver panics with a
	// typed *HangError for the supervisor to catch. lastProgress is the
	// max clock at the end of the last completed exchange.
	watchdog     float64
	lastProgress float64
	// cancelled is the cooperative cancellation flag (see Cancel): set from
	// any goroutine, observed by deliver at the next exchange boundary,
	// which panics with a typed *CancelledError. Sticky for the lifetime of
	// the Backend instance — a cancelled run is abandoned, not resumed in
	// place; resumption happens on a fresh Backend via RestoreState.
	cancelled atomic.Bool
	// warmPlans records plan-cache keys restored from a checkpoint whose
	// entries must be rebuilt on first use but accounted as cache hits,
	// so PlanCacheStats continue exactly as in the uninterrupted run.
	warmPlans map[planKey]bool
	// Snapshot state that outlives one Checkpoint call (see checkpoint.go):
	// the configuration fingerprint, the CRCs of the dats no loop had written
	// when they were first needed, and the slab table handed to the encoder.
	// All three are built on first use, so a backend that never checkpoints
	// pays for none of them.
	ckptFingerprint []byte
	ckptConstCRC    []uint32
	ckptSlabs       [][][]float64

	// pool is the persistent fork/join executor behind forEachRank, nil
	// in serial mode (or on a single-slot machine); see workerpool.go.
	pool *rankPool
	// wsc is per-worker kernel-call scratch, indexed by the worker id a
	// fork hands to its function; wsc[0] serves serial execution.
	wsc []workerScratch
	// scr is the per-Backend reusable execution scratch: every per-rank
	// phase array, key-building buffer and accounting map the hot paths
	// would otherwise allocate per execution. One fork runs at a time, so
	// a single instance serves both the standard and chain executors.
	scr execScratch
	// recScratch backs ChainBegin/ChainEnd recording without per-chain
	// allocation; rec points at it while a chain is open.
	recScratch recording
	// heCache memoises chaincfg HEOverrides slices per configured chain.
	heCache map[*chaincfg.Chain]heOverrides
	// Prebuilt fork functions: the parameters they need live in scr, so
	// steady-state dispatch creates no closures.
	fnStdRank   func(w, r int)
	fnChainPrep func(w, r int)
	fnChainExec func(w, r int)
	fnPack      func(w, r int)
	fnUnpack    func(w, r int)
}

// workerScratch is the per-worker reusable state of runLoopOnRank: the
// kernel view table and per-argument data/map slices. Each executor owns
// one instance (no sharing, no clearing — every entry read is written
// first by the same call), padded to keep concurrent workers off each
// other's cache lines.
type workerScratch struct {
	views [][]float64
	data  [][]float64
	maps  [][]int32
	_pad  [8]uint64
}

// heOverrides memoises one chain configuration's resolved halo-extension
// overrides for a given loop count.
type heOverrides struct {
	n    int
	over []int
}

// execScratch holds every reusable buffer of the steady-state execution
// paths. All are sized once (NParts, MaxChainLen) and reused, so cached-plan
// chain execution allocates nothing per iteration (asserted by
// TestChainExecZeroAlloc).
type execScratch struct {
	// runStandard's own fork parameters: the loop and its global-reduction
	// buffers. Everything else a per-loop window publishes goes where a
	// chain's does, below (a per-loop execution never overlaps a chain's).
	stdLoop core.Loop
	stdGbl  [][][]float64

	// The executing window's per-rank × per-loop split (S^c, S^h; a per-loop
	// window is column 0), post and last-arrival times, and the prep forks'
	// parameters: whether it exchanges and each rank's send volume, and for
	// a chain its loops and the plan's halo extensions. See window.go.
	chainCores    [][]int
	chainHalos    [][]int
	chainPost     []float64
	chainRecvLast []float64
	chainLoops    []core.Loop
	chainHE       []int // the executing plan's halo extensions, per loop
	chainHN       []int
	chainExch     bool
	chainSend     []int64
	// chainProg is the compiled program of the chain being executed (the
	// plan entry's, or uncachedProg); uncachedProg is where NoPlanCache
	// executions compile theirs, storage reused from one to the next.
	chainProg    *chainProgram
	uncachedProg chainProgram

	// Per-chain work vectors (iteration-time table, model parameters).
	g  []float64
	lp []model.LoopParams

	// Key-building byte buffers: chain signatures, plan-cache keys and
	// schedule fingerprints are built here and looked up via the
	// alloc-free map[string(buf)] form.
	sigBuf []byte
	keyBuf []byte
	fpBuf  []byte

	// gather is where ChecksumDats assembles one dat at a time: sized to
	// the largest dat by the first call.
	gather []float64

	// Delivery scratch: the per-sender NIC-free times and per-message
	// timeline records of the exchange being priced, and the fault-tolerant
	// transport's state while a fault plan is active.
	busy  []float64
	recs  []netsim.Record
	retry retrier

	// filterNeeds output, aliased by the execution that requested it.
	filtered []exchangeSpec

	// The schedule being replayed (the pack/unpack forks' parameter) and
	// the payload slab all schedules share, sized to the largest exchange
	// so far: an exchange packs and unpacks before anything else runs.
	sched *exchangeSchedule
	slab  []float64
}

// recording buffers the loops of an open chain.
type recording struct {
	name  string
	loops []core.Loop
}

// New builds the distributed back-end: derives per-set ownership, constructs
// halo layouts, and scatters every dat into per-rank local storage.
func New(cfg Config) (*Backend, error) {
	if cfg.Prog == nil || cfg.Primary == nil {
		return nil, fmt.Errorf("cluster: Prog and Primary are required")
	}
	if cfg.NParts < 1 {
		return nil, fmt.Errorf("cluster: NParts %d < 1", cfg.NParts)
	}
	if cfg.Depth < 0 {
		return nil, fmt.Errorf("cluster: Depth %d < 0", cfg.Depth)
	}
	if cfg.MaxChainLen < 0 {
		return nil, fmt.Errorf("cluster: MaxChainLen %d < 0", cfg.MaxChainLen)
	}
	if len(cfg.Assign) != cfg.Primary.Size {
		return nil, fmt.Errorf("cluster: %d assignments for primary set %s of size %d",
			len(cfg.Assign), cfg.Primary.Name, cfg.Primary.Size)
	}
	for i, a := range cfg.Assign {
		if a < 0 || int(a) >= cfg.NParts {
			return nil, fmt.Errorf("cluster: Assign[%d] = %d outside [0, %d)", i, a, cfg.NParts)
		}
	}
	if cfg.Lazy && !cfg.CA {
		return nil, fmt.Errorf("cluster: Lazy requires CA (lazy chains execute with Algorithm 2)")
	}
	if cfg.AutoTune && !cfg.CA {
		return nil, fmt.Errorf("cluster: AutoTune requires CA (the tuner picks between per-loop and Algorithm 2 execution)")
	}
	if cfg.Faults != nil && cfg.Faults.MaxRetries > maxRetryBudget {
		return nil, fmt.Errorf("cluster: fault plan maxretries %d > %d", cfg.Faults.MaxRetries, maxRetryBudget)
	}
	if cfg.Chains != nil {
		for _, name := range cfg.Chains.Order {
			if c := cfg.Chains.Get(name); c != nil && c.MaxRetries > maxRetryBudget {
				return nil, fmt.Errorf("cluster: chain %s maxretries %d > %d", c.Name, c.MaxRetries, maxRetryBudget)
			}
		}
	}
	if cfg.Depth == 0 {
		cfg.Depth = 1
	}
	if cfg.MaxChainLen == 0 {
		cfg.MaxChainLen = 8
	}
	if cfg.Machine == nil {
		cfg.Machine = machine.Laptop()
	}
	owners, err := halo.DeriveOwnership(cfg.Prog, cfg.Primary, cfg.Assign)
	if err != nil {
		return nil, err
	}
	b := &Backend{
		cfg: cfg,
		net: netsim.Network{Latency: cfg.Machine.Latency, Bandwidth: cfg.Machine.Bandwidth,
			EagerThreshold: cfg.Machine.EagerThreshold, Handshake: cfg.Machine.Handshake},
		owners:     owners,
		layouts:    halo.Build(cfg.Prog, owners, cfg.NParts, cfg.Depth, cfg.MaxChainLen),
		dats:       make([][][]float64, cfg.NParts),
		valid:      make([]validity, len(cfg.Prog.Dats)),
		written:    make([]bool, len(cfg.Prog.Dats)),
		clock:      make([]float64, cfg.NParts),
		stats:      newStats(),
		plans:      map[string]*planEntry{},
		schedules:  map[string]*exchangeSchedule{},
		tunes:      map[tuneKey]*chainTune{},
		warmPlans:  map[planKey]bool{},
		heCache:    map[*chaincfg.Chain]heOverrides{},
		crashArmed: armAll(len(cfg.Faults.CrashSchedule())),

		maxRetries:   4,
		retryTimeout: 4 * cfg.Machine.Latency,
		retryBackoff: cfg.Machine.Latency,
	}
	if cfg.Faults != nil && cfg.Faults.MaxRetries > 0 {
		b.maxRetries = cfg.Faults.MaxRetries
	}
	b.initScratch()
	workers := 1
	if cfg.Parallel && cfg.NParts > 1 {
		workers = runtime.GOMAXPROCS(0)
		if workers > cfg.NParts {
			workers = cfg.NParts
		}
	}
	if err := b.net.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: machine %s: %v", cfg.Machine.Name, err)
	}
	b.installPool(workers)
	var slab []float64
	if cfg.Slabs != nil {
		// One borrowed slab for every (rank, dat): nothing below can fail, so
		// whoever gets the backend gets the duty to Close it and return this.
		total := 0
		for r := range b.dats {
			for _, d := range cfg.Prog.Dats {
				total += b.layouts[r].SetL(d.Set).Total() * d.Dim
			}
		}
		b.datSlab = cfg.Slabs.Get(total)
		slab = b.datSlab
	}
	for r := range b.dats {
		b.dats[r] = make([][]float64, len(cfg.Prog.Dats))
		for _, d := range cfg.Prog.Dats {
			sl := b.layouts[r].SetL(d.Set)
			var local []float64
			if n := sl.Total() * d.Dim; slab == nil {
				local = make([]float64, n)
			} else {
				// Capacity ends with the slice: nothing grows into a neighbour.
				local, slab = slab[:n:n], slab[n:]
			}
			for loc := 0; loc < sl.Total(); loc++ {
				g := int(sl.L2G[loc])
				copy(local[loc*d.Dim:(loc+1)*d.Dim], d.Data[g*d.Dim:(g+1)*d.Dim])
			}
			b.dats[r][d.ID] = local
		}
	}
	for i := range b.valid {
		b.valid[i] = validity{exec: cfg.Depth, nonexec: cfg.Depth}
	}
	b.tracer = cfg.Tracer
	// Each backend instance opens its own trace epoch: its virtual clock
	// starts at zero, so runs sharing one tracer (benchmark sweeps) must
	// not share a timeline.
	b.epoch = b.tracer.NewEpoch(fmt.Sprintf("%s x%d (%s)", b.Name(), cfg.NParts, cfg.Machine.Name))
	return b, nil
}

// Name implements core.Backend.
func (b *Backend) Name() string {
	if b.cfg.CA {
		return "cluster-ca"
	}
	return "cluster-op2"
}

// Stats returns the instrumentation counters, flushing any lazily queued
// loops first.
func (b *Backend) Stats() *Stats {
	b.FlushLazy()
	return b.stats
}

// Clocks returns the per-rank virtual clocks, flushing any lazily queued
// loops first.
func (b *Backend) Clocks() []float64 {
	b.FlushLazy()
	return b.clock
}

// MaxClock returns the virtual time of the slowest rank, flushing any
// lazily queued loops first.
func (b *Backend) MaxClock() float64 {
	b.FlushLazy()
	return b.maxClock()
}

// armAll builds the initial all-armed crash mask for n schedule clauses.
func armAll(n int) []bool {
	if n == 0 {
		return nil
	}
	m := make([]bool, n)
	for i := range m {
		m[i] = true
	}
	return m
}

// ArmCrashes sets the per-clause crash mask (indexed like the fault plan's
// CrashSchedule). A supervisor uses it after restoring from a snapshot to
// re-arm the clauses that have not fired yet — Restore itself disarms all of
// them, which is correct for manual -restore but would let a multi-crash
// schedule fire only its first clause under supervision. Entries beyond the
// schedule length are ignored; a nil mask disarms everything.
func (b *Backend) ArmCrashes(mask []bool) {
	n := len(b.cfg.Faults.CrashSchedule())
	b.crashArmed = make([]bool, n)
	for i := 0; i < n && i < len(mask); i++ {
		b.crashArmed[i] = mask[i]
	}
}

// SetWatchdog sets the no-progress deadline in virtual seconds (0 disables
// it): if the maximum virtual clock advances more than deadline past the end
// of the last completed exchange, the next exchange panics with a typed
// *HangError. The progress marker resets to the current clock, so arming the
// watchdog on a restored backend does not trip it retroactively.
func (b *Backend) SetWatchdog(deadline float64) {
	b.watchdog = deadline
	b.lastProgress = b.maxClock()
}

// maxClock is MaxClock without the lazy flush, for internal accounting.
func (b *Backend) maxClock() float64 {
	m := 0.0
	for _, t := range b.clock {
		if t > m {
			m = t
		}
	}
	return m
}

// NParts returns the rank count.
func (b *Backend) NParts() int { return b.cfg.NParts }

// ChainBegin implements core.Backend: start recording a loop-chain. An
// explicit chain boundary flushes any lazily queued loops first. The
// recording reuses one Backend-owned buffer, so steady-state chain
// re-execution records without allocating.
func (b *Backend) ChainBegin(name string) {
	if b.rec != nil {
		panic(fmt.Sprintf("cluster: nested loop-chain %q inside %q", name, b.rec.name))
	}
	b.mustBeOpen("ChainBegin")
	b.FlushLazy()
	b.recScratch.name = name
	b.recScratch.loops = b.recScratch.loops[:0]
	b.rec = &b.recScratch
}

// ChainEnd implements core.Backend: execute the recorded chain, with
// Algorithm 2 when CA is enabled and the chain is not disabled by
// configuration, else as ordinary per-loop OP2 code.
func (b *Backend) ChainEnd() {
	if b.rec == nil {
		panic("cluster: ChainEnd without ChainBegin")
	}
	rec := b.rec
	b.rec = nil

	cs := b.stats.chain(rec.name)
	cs.Executions++
	cs.noteLen(len(rec.loops))

	chainCfg := b.cfg.Chains.Get(rec.name)
	useCA := b.cfg.CA && len(rec.loops) > 1 && (chainCfg == nil || !chainCfg.Disabled)
	if !useCA {
		b.runPerLoop(rec.name, rec.loops, cs, b.maxClock())
		return
	}
	if ct := b.tuneFor(rec.name, rec.loops, chainCfg); ct != nil {
		b.runTuned(ct, rec.name, rec.loops, chainCfg, cs)
		return
	}
	b.runChain(rec.name, rec.loops, chainCfg, cs, false)
}

// ParLoop implements core.Backend.
func (b *Backend) ParLoop(l core.Loop) {
	b.mustBeOpen("ParLoop")
	if err := l.Validate(); err != nil {
		panic("cluster: " + err.Error())
	}
	if b.rec != nil {
		if l.HasGlobalReduction() {
			panic(fmt.Sprintf("cluster: loop %q with global reduction inside chain %q",
				l.Kernel.Name, b.rec.name))
		}
		b.rec.loops = append(b.rec.loops, l)
		return
	}
	if b.cfg.Lazy {
		if l.HasGlobalReduction() {
			// A global reduction is a synchronisation point: it ends any
			// implicit chain.
			b.FlushLazy()
			b.runStandard(l, "")
			return
		}
		b.lazyQ = append(b.lazyQ, l)
		if len(b.lazyQ) >= b.cfg.MaxChainLen {
			b.FlushLazy()
		}
		return
	}
	b.runStandard(l, "")
}

// FlushLazy executes any lazily queued loops: as an automatically detected
// CA chain when two or more loops are queued and their dependencies allow,
// else as ordinary per-loop code. It is a no-op outside lazy mode or when
// the queue is empty.
func (b *Backend) FlushLazy() {
	q := b.lazyQ
	if len(q) == 0 {
		return
	}
	b.mustBeOpen("FlushLazy")
	b.lazyQ = nil
	// Every flush counts as one execution of the "lazy" chain, single-loop
	// flushes included, and the chain-length spread is tracked via
	// noteLen: auto-detected chain lengths vary from flush to flush, so a
	// single last-writer NLoop would misreport the row.
	cs := b.stats.chain("lazy")
	cs.Executions++
	cs.noteLen(len(q))
	if len(q) == 1 {
		// One queued loop: no chain to build. Run it per-loop, attributed
		// to the lazy chain exactly like a chain fallback.
		b.runPerLoop("lazy", q, cs, b.maxClock())
		return
	}
	if ct := b.tuneFor("lazy", q, b.cfg.Chains.Get("lazy")); ct != nil {
		b.runTuned(ct, "lazy", q, b.cfg.Chains.Get("lazy"), cs)
		return
	}
	b.runChain("lazy", q, b.cfg.Chains.Get("lazy"), cs, true)
}

// GatherDat assembles the global values of d from the owning ranks,
// flushing any lazily queued loops first (it observes their results).
func (b *Backend) GatherDat(d *core.Dat) []float64 {
	b.mustBeOpen("GatherDat")
	b.FlushLazy()
	return b.gatherInto(make([]float64, d.Set.Size*d.Dim), d)
}

// gatherInto writes the owners' values of d into out, in global order.
func (b *Backend) gatherInto(out []float64, d *core.Dat) []float64 {
	for r := 0; r < b.cfg.NParts; r++ {
		sl := b.layouts[r].SetL(d.Set)
		local := b.dats[r][d.ID]
		for loc := 0; loc < sl.NOwned; loc++ {
			g := int(sl.L2G[loc])
			copy(out[g*d.Dim:(g+1)*d.Dim], local[loc*d.Dim:(loc+1)*d.Dim])
		}
	}
	return out
}

// ChecksumDats returns an FNV-1a hash over the gathered global values of
// every declared dat, in declaration order. Two backends that executed the
// same program produce the same checksum iff their final states are
// bit-identical — the check behind the fault-injection invariant (faults
// shape virtual time, never data). Every dat is gathered into one buffer
// the backend keeps, so a call allocates nothing proportional to the data.
func (b *Backend) ChecksumDats() string {
	b.mustBeOpen("ChecksumDats")
	b.FlushLazy()
	if b.scr.gather == nil {
		n := 0
		for _, d := range b.cfg.Prog.Dats {
			n = max(n, d.Set.Size*d.Dim)
		}
		b.scr.gather = b.regrow(nil, n)
	}
	h := fnv.New64a()
	var block [4096]byte
	for _, d := range b.cfg.Prog.Dats {
		h.Write([]byte(d.Name))
		vals := b.gatherInto(b.scr.gather[:d.Set.Size*d.Dim], d)
		for len(vals) > 0 {
			n := min(len(vals), len(block)/8)
			for i, v := range vals[:n] {
				binary.LittleEndian.PutUint64(block[8*i:], math.Float64bits(v))
			}
			h.Write(block[:8*n])
			vals = vals[n:]
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ScatterDat pushes fresh global values of d to every rank (owned and halo
// copies), marking the dat fully valid. Use it to (re)initialise data
// between experiment phases.
func (b *Backend) ScatterDat(d *core.Dat, global []float64) {
	b.mustBeOpen("ScatterDat")
	b.FlushLazy()
	if len(global) != d.Set.Size*d.Dim {
		panic(fmt.Sprintf("cluster: ScatterDat %s: %d values, want %d", d.Name, len(global), d.Set.Size*d.Dim))
	}
	for r := 0; r < b.cfg.NParts; r++ {
		sl := b.layouts[r].SetL(d.Set)
		local := b.dats[r][d.ID]
		for loc := 0; loc < sl.Total(); loc++ {
			g := int(sl.L2G[loc])
			copy(local[loc*d.Dim:(loc+1)*d.Dim], global[g*d.Dim:(g+1)*d.Dim])
		}
	}
	b.valid[d.ID] = validity{exec: b.cfg.Depth, nonexec: b.cfg.Depth}
	b.written[d.ID] = true
}

// forEachRank runs f(w, r) for every rank r, through the persistent worker
// pool when one is installed (Parallel mode on a multi-slot machine), else
// serially on the caller's goroutine as worker 0. f must only touch state
// owned by rank r, plus per-worker scratch indexed by w. Worker panics are
// re-raised on the caller's goroutine (see rankPool.forEach), so panic
// semantics are identical in serial and parallel modes.
func (b *Backend) forEachRank(f func(w, r int)) {
	if b.pool == nil {
		for r := 0; r < b.cfg.NParts; r++ {
			f(0, r)
		}
		return
	}
	b.pool.forEach(b.cfg.NParts, f)
}

// installPool sets the fork/join executor to the given worker count (1
// removes the pool: serial dispatch) and sizes the per-worker scratch to
// match. Tests use it to force multi-worker pools on single-slot machines.
func (b *Backend) installPool(workers int) {
	b.stopPool()
	if workers > 1 {
		b.pool = newRankPool(workers)
	}
	n := workers
	if n < 1 {
		n = 1
	}
	if len(b.wsc) < n {
		b.wsc = make([]workerScratch, n)
	}
}

// stopPool stops the worker pool's goroutines and returns once they have
// exited.
func (b *Backend) stopPool() {
	if b.pool != nil {
		b.pool.close()
		b.pool = nil
	}
}

// Close ends the backend: it stops the worker pool's goroutines, returning
// once they have exited, gives what the backend borrowed back to
// Config.Slabs, and lets go of the dats. It is the only teardown: whoever
// constructs a backend owns it and must Close it, or a Parallel one's workers
// outlive it and a lent one's slabs are never lent again. What a run leaves
// behind stays readable — Stats, Clocks, MaxClock, ExchangeSeq and everything
// they returned earlier — and anything that would touch the dats (ParLoop,
// ScatterDat, GatherDat, ChecksumDats, Checkpoint) panics with a
// *ClosedError. Idempotent: a slab goes back exactly once.
func (b *Backend) Close() {
	b.stopPool()
	if b.dats == nil {
		return
	}
	b.dats = nil
	if l := b.cfg.Slabs; l != nil {
		l.Put(b.datSlab)
		l.Put(b.scr.slab)
		l.Put(b.scr.gather)
	}
	b.datSlab, b.scr.slab, b.scr.gather = nil, nil, nil
}

// mustBeOpen panics with a *ClosedError when the backend has been closed.
func (b *Backend) mustBeOpen(op string) {
	if b.dats == nil {
		panic(&ClosedError{Backend: b.Name(), NParts: b.cfg.NParts, Op: op})
	}
}

// regrow returns storage for n values that the backend keeps until Close —
// borrowed when it has a lender, made otherwise — in place of old, which goes
// back to the lender. The contents are unspecified.
func (b *Backend) regrow(old []float64, n int) []float64 {
	if l := b.cfg.Slabs; l != nil {
		l.Put(old)
		s := l.Get(n)
		return s[:cap(s)]
	}
	return make([]float64, n)
}

// initScratch sizes the per-Backend execution scratch from the
// configuration. Chain matrices are MaxChainLen wide; every per-rank array
// is NParts long.
func (b *Backend) initScratch() {
	n, cl := b.cfg.NParts, b.cfg.MaxChainLen
	s := &b.scr
	s.chainPost = make([]float64, n)
	s.chainRecvLast = make([]float64, n)
	s.chainCores = make([][]int, n)
	s.chainHalos = make([][]int, n)
	flatI := make([]int, 2*n*cl)
	for r := 0; r < n; r++ {
		s.chainCores[r] = flatI[(2*r+0)*cl : (2*r+1)*cl]
		s.chainHalos[r] = flatI[(2*r+1)*cl : (2*r+2)*cl]
	}
	s.g = make([]float64, cl)
	s.lp = make([]model.LoopParams, cl)
	s.busy = make([]float64, n)
	// Exchanges with nothing to send share one schedule whose per-rank byte
	// counts stay all-zero (callers only read them), so dirty-state-clean
	// loops allocate nothing.
	zero := make([]int64, n)
	b.noExchange = &exchangeSchedule{sendBytes: zero, recvBytes: zero}
	b.fnStdRank = func(w, r int) { b.stdRank(w, r) }
	b.fnChainPrep = func(w, r int) { b.chainPrepRank(w, r) }
	b.fnChainExec = func(w, r int) { b.chainExecRank(w, r) }
	b.fnPack = func(w, r int) { b.packRank(w, r) }
	b.fnUnpack = func(w, r int) { b.unpackRank(w, r) }
}

// runLoopOnRank executes iterations [lo, hi) of loop l on rank r, as
// worker w (indexing the per-worker view/data/map scratch). Ranges within
// the executable region run in the layout's canonical ExecOrder (ascending
// global index), so indirect increments accumulate identically on every
// rank and every execution policy — per-loop, CA at any depth — and match
// the sequential reference bit for bit. Non-execute refresh ranges write
// elementwise and run in storage order. gblScratch, when non-nil, holds
// per-argument redirection buffers for global reduction arguments.
func (b *Backend) runLoopOnRank(w, r int, l core.Loop, lo, hi int, gblScratch [][]float64) {
	if lo >= hi {
		return
	}
	nargs := len(l.Args)
	// Reused per-worker tables. Stale entries at global-argument positions
	// are never read (the view loop below redirects globals to Gbl or the
	// scratch buffer), and every view slot is rewritten before the kernel
	// runs, so no clearing is needed.
	ws := &b.wsc[w]
	views := growSlices(&ws.views, l.NumViews())
	data := growSlices(&ws.data, nargs)
	maps := growMaps(&ws.maps, nargs)
	for i, a := range l.Args {
		switch {
		case a.IsGlobal():
			continue
		case a.Indirect():
			data[i] = b.dats[r][a.Dat.ID]
			maps[i] = b.layouts[r].MapL(a.Map)
		default:
			data[i] = b.dats[r][a.Dat.ID]
		}
	}
	deref := func(i int, a core.Arg, iter, slot int) []float64 {
		e := int(maps[i][iter*a.Map.Arity+slot])
		if e < 0 {
			panic(&HaloDepthError{Rank: r, Loop: l.Kernel.Name, Iter: iter, Map: a.Map.Name, Slot: slot})
		}
		return data[i][e*a.Dat.Dim : (e+1)*a.Dat.Dim]
	}
	run := func(iter int) {
		vi := 0
		for i, a := range l.Args {
			switch {
			case a.IsGlobal():
				if gblScratch != nil && gblScratch[i] != nil {
					views[vi] = gblScratch[i]
				} else {
					views[vi] = a.Gbl
				}
				vi++
			case a.Indirect() && a.Idx == core.VecAll:
				for slot := 0; slot < a.Map.Arity; slot++ {
					views[vi] = deref(i, a, iter, slot)
					vi++
				}
			case a.Indirect():
				views[vi] = deref(i, a, iter, a.Idx)
				vi++
			default:
				views[vi] = data[i][iter*a.Dat.Dim : (iter+1)*a.Dat.Dim]
				vi++
			}
		}
		l.Kernel.Fn(views)
	}
	if order := b.layouts[r].SetL(l.Set).ExecOrder; hi <= len(order) {
		for _, iter := range order {
			if it := int(iter); it >= lo && it < hi {
				run(it)
			}
		}
		return
	}
	for iter := lo; iter < hi; iter++ {
		run(iter)
	}
}

// growSlices returns s resized to n entries, reallocating only on growth.
func growSlices(s *[][]float64, n int) [][]float64 {
	if cap(*s) < n {
		*s = make([][]float64, n)
	}
	*s = (*s)[:n]
	return *s
}

// growMaps is growSlices for map-index tables.
func growMaps(s *[][]int32, n int) [][]int32 {
	if cap(*s) < n {
		*s = make([][]int32, n)
	}
	*s = (*s)[:n]
	return *s
}

// prepareGlobals returns per-rank scratch buffers for global reduction
// arguments of l (identity-initialised), or nil when l has none.
func (b *Backend) prepareGlobals(l core.Loop) [][][]float64 {
	if !l.HasGlobalReduction() {
		return nil
	}
	scratch := make([][][]float64, b.cfg.NParts)
	for r := range scratch {
		scratch[r] = make([][]float64, len(l.Args))
		for i, a := range l.Args {
			if !a.IsGlobal() || a.Mode == core.Read {
				continue
			}
			buf := make([]float64, len(a.Gbl))
			switch a.Mode {
			case core.Min:
				for j := range buf {
					buf[j] = math.Inf(1)
				}
			case core.Max:
				for j := range buf {
					buf[j] = math.Inf(-1)
				}
			}
			scratch[r][i] = buf
		}
	}
	return scratch
}

// reduceGlobals combines per-rank partial reductions into the user buffers
// and returns the payload bytes reduced (for the allreduce time charge).
func (b *Backend) reduceGlobals(l core.Loop, scratch [][][]float64) int64 {
	if scratch == nil {
		return 0
	}
	var bytes int64
	for i, a := range l.Args {
		if !a.IsGlobal() || a.Mode == core.Read {
			continue
		}
		bytes += int64(len(a.Gbl) * 8)
		for r := 0; r < b.cfg.NParts; r++ {
			part := scratch[r][i]
			for j := range a.Gbl {
				switch a.Mode {
				case core.Inc:
					a.Gbl[j] += part[j]
				case core.Min:
					if part[j] < a.Gbl[j] {
						a.Gbl[j] = part[j]
					}
				case core.Max:
					if part[j] > a.Gbl[j] {
						a.Gbl[j] = part[j]
					}
				}
			}
		}
	}
	return bytes
}

// updateValidity applies OP2's dirty-bit rule after executing loop l: any
// dat the loop writes (OP_WRITE, OP_INC or OP_RW, direct or indirect) has
// stale halo copies afterwards and must be re-exchanged before its next
// halo-dependent read.
func (b *Backend) updateValidity(l core.Loop) {
	for _, a := range l.Args {
		if a.IsGlobal() || !a.Mode.Writes() {
			continue
		}
		b.valid[a.Dat.ID] = validity{}
		b.written[a.Dat.ID] = true
	}
}
