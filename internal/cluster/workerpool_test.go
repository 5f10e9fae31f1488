package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"op2ca/internal/core"
	"op2ca/internal/faults"
	"op2ca/internal/hydra"
	"op2ca/internal/leakcheck"
	"op2ca/internal/machine"
	"op2ca/internal/mesh"
	"op2ca/internal/netsim"
	"op2ca/internal/partition"
)

// forcedWorkers is the pool width the tests install explicitly:
// single-slot CI machines would otherwise never build a pool (New only
// installs one when GOMAXPROCS > 1), leaving the parallel paths untested.
const forcedWorkers = 4

// TestPoolVisitsEveryRankOnce: the chunked cursor hands every rank to
// exactly one worker, for rank counts around the chunking boundaries.
func TestPoolVisitsEveryRankOnce(t *testing.T) {
	p := newRankPool(forcedWorkers)
	defer p.close()
	for _, nparts := range []int{1, 2, 3, forcedWorkers, forcedWorkers + 1, 17, 64, 1024} {
		visits := make([]atomic.Int32, nparts)
		p.forEach(nparts, func(w, r int) {
			if w < 0 || w >= forcedWorkers {
				t.Errorf("nparts=%d: worker id %d out of range", nparts, w)
			}
			visits[r].Add(1)
		})
		for r := range visits {
			if n := visits[r].Load(); n != 1 {
				t.Fatalf("nparts=%d: rank %d executed %d times, want 1", nparts, r, n)
			}
		}
	}
}

// TestPoolBoundsConcurrency: dispatching 1024 simulated ranks runs at most
// `workers` rank bodies at once — the fork reuses the persistent workers
// instead of spawning a goroutine per rank (the executor this pool
// replaced would hit 1024 here).
func TestPoolBoundsConcurrency(t *testing.T) {
	p := newRankPool(forcedWorkers)
	defer p.close()
	var cur, max atomic.Int32
	p.forEach(1024, func(w, r int) {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		cur.Add(-1)
	})
	if m := max.Load(); m > forcedWorkers {
		t.Fatalf("observed %d concurrent rank bodies, want <= %d workers", m, forcedWorkers)
	}
}

// TestPoolReRaisesTypedPanics is the panic-transparency regression test:
// a typed panic on a worker goroutine (*ExchangeError here) must surface on
// the dispatching goroutine with its original value, so callers that
// recover on typed panics behave identically in serial and parallel modes.
// Before the pool, each rank ran on its own goroutine and a panicking rank
// aborted the whole process — no recover could see it.
func TestPoolReRaisesTypedPanics(t *testing.T) {
	p := newRankPool(forcedWorkers)
	defer p.close()
	want := &ExchangeError{Kind: ErrSizeMismatch, Rank: 13, From: 2, Dat: "res", Want: 8, Got: 3}
	for round := 0; round < 3; round++ {
		// Repeated rounds prove the pool survives a panicking fork: the
		// join completes, the run state resets, and the next fork works.
		func() {
			defer func() {
				rec := recover()
				ee, ok := rec.(*ExchangeError)
				if !ok {
					t.Fatalf("round %d: recovered %T (%v), want *ExchangeError", round, rec, rec)
				}
				if ee != want {
					t.Fatalf("round %d: recovered %v, not the original panic value", round, ee)
				}
				if len(p.run.panicStack) == 0 {
					t.Fatalf("round %d: worker stack not captured", round)
				}
			}()
			p.forEach(64, func(w, r int) {
				if r == 13 {
					panic(want)
				}
			})
			t.Fatalf("round %d: forEach returned without panicking", round)
		}()
		// The pool must still dispatch cleanly after re-raising.
		var n atomic.Int32
		p.forEach(64, func(w, r int) { n.Add(1) })
		if n.Load() != 64 {
			t.Fatalf("round %d: post-panic fork ran %d ranks, want 64", round, n.Load())
		}
	}
}

// TestParallelCrashFaultRecoverable: a *faults.CrashError raised inside a
// kernel running on a pool worker is recoverable by a caller-side deferred
// recover — the exact shape of catchCrash in cmd/mgcfd and cmd/hydra, whose
// exit-3 checkpoint-restart protocol depends on seeing the typed value.
func TestParallelCrashFaultRecoverable(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	a := newMiniApp(m)
	a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
	b, err := New(Config{
		Prog: a.p, Primary: a.nodes, Assign: partition.KWay(m.NodeAdjacency(), 6), NParts: 6,
		Depth: 2, MaxChainLen: 4, CA: true, Parallel: true, Machine: machine.ARCHER2(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.installPool(forcedWorkers)
	crash := &faults.CrashError{Rank: 3, Exchange: 0}
	var fired atomic.Bool
	kCrash := &core.Kernel{Name: "crash_once", Fn: func(args [][]float64) {
		if args[0][0] != 0 && fired.CompareAndSwap(false, true) {
			panic(crash)
		}
	}}
	var rec any
	func() {
		defer func() { rec = recover() }()
		b.ChainBegin("crashing")
		b.ParLoop(core.NewLoop(kUpdate, a.edges,
			core.ArgDat(a.res, 0, a.e2n, core.Inc), core.ArgDat(a.res, 1, a.e2n, core.Inc),
			core.ArgDat(a.pres, 0, a.e2n, core.Read), core.ArgDat(a.pres, 1, a.e2n, core.Read)))
		b.ParLoop(core.NewLoop(kCrash, a.edges,
			core.ArgDat(a.res, 0, a.e2n, core.ReadWrite),
			core.ArgDat(a.res, 1, a.e2n, core.Read)))
		b.ChainEnd()
	}()
	ce := &faults.CrashError{}
	if !errors.As(toError(rec), &ce) {
		t.Fatalf("recovered %T (%v), want *faults.CrashError", rec, rec)
	}
	if ce != crash {
		t.Fatalf("recovered %v, not the original crash value", ce)
	}
}

// toError adapts a recovered panic value for errors.As, mirroring how
// catchCrash inspects it.
func toError(rec any) error {
	if err, ok := rec.(error); ok {
		return err
	}
	return nil
}

// TestCloseStopsPoolWorkers: Close is the only teardown of a Parallel
// backend's worker goroutines, so it must stop all of them — and so must
// installPool when it replaces a pool (tests re-install to force widths the
// host's GOMAXPROCS would not give). Nothing may be left running after
// Close, whatever was installed in between.
func TestCloseStopsPoolWorkers(t *testing.T) {
	defer leakcheck.Check(t)()
	m := mesh.Rotor(8, 6, 5)
	a := newMiniApp(m)
	a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
	b, err := New(Config{
		Prog: a.p, Primary: a.nodes, Assign: partition.KWay(m.NodeAdjacency(), 6), NParts: 6,
		Depth: 2, MaxChainLen: 4, CA: true, Parallel: true, Machine: machine.ARCHER2(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{forcedWorkers, 2, 1, forcedWorkers} {
		b.installPool(workers)
		a.run(b, 1, true)
	}
	b.Close()
	b.Close() // idempotent
	// A closed backend is finished: the next loop is refused by name.
	defer func() {
		var ce *ClosedError
		if err, _ := recover().(error); !errors.As(err, &ce) || ce.Backend != b.Name() || ce.NParts != 6 {
			t.Errorf("loop on a closed backend: recovered %v, want a *ClosedError naming %s x6", err, b.Name())
		}
	}()
	a.run(b, 1, true)
}

// TestForcedPoolMatchesSerial: the forced multi-worker pool produces
// bit-identical results, clocks and stats to serial dispatch across the
// execution modes (grouped and ungrouped CA, bulk and overlapped), with and
// without drop+straggler fault injection. This is the -race matrix entry:
// under `go test -race` it exercises every fork point — loop bodies, pack,
// unpack, schedule replay — with real worker concurrency.
func TestForcedPoolMatchesSerial(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	plans := map[string]*faults.Plan{
		"clean":  nil,
		"faulty": faults.MustParse("drop=0.2,straggler=rank1:3x,seed=7"),
	}
	for _, mode := range []string{"ca", "ca-ungrouped", "ca-overlap", "ca-ungrouped-overlap"} {
		for pname, plan := range plans {
			serialRes, serialB := faultyResult(t, m, 2, plan, mode)
			parRes, parB := pooledResult(t, m, 2, plan, mode)
			compareExact(t, mode+"/"+pname, parRes, serialRes)
			sc, pc := serialB.Clocks(), parB.Clocks()
			for r := range sc {
				if sc[r] != pc[r] {
					t.Fatalf("%s/%s: rank %d clock %g (parallel) != %g (serial)",
						mode, pname, r, pc[r], sc[r])
				}
			}
			if ss, ps := serialB.Stats().String(), parB.Stats().String(); ss != ps {
				t.Fatalf("%s/%s: stats diverge\nserial:\n%s\nparallel:\n%s", mode, pname, ss, ps)
			}
		}
	}
}

// pooledResult is faultyResult with a forced multi-worker pool.
func pooledResult(t *testing.T, m *mesh.FV3D, steps int, plan *faults.Plan, mode string) (map[string][]float64, *Backend) {
	t.Helper()
	a := newMiniApp(m)
	a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
	cfg := Config{
		Prog: a.p, Primary: a.nodes, Assign: partition.KWay(m.NodeAdjacency(), 4), NParts: 4,
		Depth: 2, MaxChainLen: 4, Machine: machine.ARCHER2(), Faults: plan,
		CA: true, Parallel: true,
	}
	switch mode {
	case "ca":
	case "ca-ungrouped":
		cfg.NoGroupedMsgs = true
	case "ca-overlap":
		cfg.Overlap = true
	case "ca-ungrouped-overlap":
		cfg.NoGroupedMsgs, cfg.Overlap = true, true
	default:
		t.Fatalf("unknown mode %q", mode)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	b.installPool(forcedWorkers)
	a.run(b, steps, true)
	return map[string][]float64{
		"res": b.GatherDat(a.res), "flux": b.GatherDat(a.flux),
	}, b
}

// TestChainExecZeroAlloc: steady-state execution of a cached-plan chain
// allocates nothing — serially and through a forced multi-worker pool, for
// the mini-app's two-loop chain and for Hydra's gradl and vflux chains (an
// all-direct loop, 7- and 15-argument edge loops, configured halo
// extensions). The first executions populate the plan cache, compile its
// programs, build the exchange schedules and size the Backend scratch;
// thereafter signature building, plan lookup, schedule replay, fork
// dispatch and compiled loop execution all run out of preallocated state.
func TestChainExecZeroAlloc(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	// Loops are prebuilt, as both apps build theirs: core.NewLoop allocates,
	// so mgcfd and hydra declare every loop once with the app and issue the
	// stored tables each iteration (h.ChainLoops copies hydra's).
	type chain struct {
		name  string
		loops []core.Loop
	}
	a := newMiniApp(m)
	a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
	h := hydra.New(m)
	for _, fx := range []struct {
		name   string
		cfg    Config
		chains []chain
	}{
		{"synth", Config{Prog: a.p, Primary: a.nodes, MaxChainLen: 4}, []chain{{"synth", []core.Loop{
			core.NewLoop(kUpdate, a.edges,
				core.ArgDat(a.res, 0, a.e2n, core.Inc), core.ArgDat(a.res, 1, a.e2n, core.Inc),
				core.ArgDat(a.pres, 0, a.e2n, core.Read), core.ArgDat(a.pres, 1, a.e2n, core.Read)),
			core.NewLoop(kFlux, a.edges,
				core.ArgDat(a.flux, 0, a.e2n, core.Inc), core.ArgDat(a.flux, 1, a.e2n, core.Inc),
				core.ArgDat(a.res, 0, a.e2n, core.Read), core.ArgDat(a.res, 1, a.e2n, core.Read),
				core.ArgDatDirect(a.ew, core.Read)),
		}}}},
		{"hydra", Config{Prog: h.Prog, Primary: h.Nodes, MaxChainLen: 6, Chains: hydra.MustPaperConfig()},
			[]chain{{"gradl", h.ChainLoops("gradl")}, {"vflux", h.ChainLoops("vflux")}}},
	} {
		cfg := fx.cfg
		cfg.Assign, cfg.NParts = partition.KWay(m.NodeAdjacency(), 4), 4
		cfg.Depth, cfg.CA, cfg.Machine = 2, true, machine.ARCHER2()
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		window := func() {
			for _, c := range fx.chains {
				b.ChainBegin(c.name)
				for _, l := range c.loops {
					b.ParLoop(l)
				}
				b.ChainEnd()
			}
		}
		for _, workers := range []int{1, forcedWorkers} {
			b.installPool(workers)
			// Warm up: populate the plan cache, build the steady-state
			// exchange schedule, and size every scratch buffer.
			for i := 0; i < 3; i++ {
				window()
			}
			if n := testing.AllocsPerRun(10, window); n != 0 {
				t.Fatalf("%s, %d workers: cached-plan chain execution allocates %v per run, want 0", fx.name, workers, n)
			}
		}
		if hits, misses, _ := b.PlanCacheStats(); int(misses) != len(fx.chains) || hits < 20 {
			t.Fatalf("%s: plan cache hits=%d misses=%d; the measured windows must replay one cached plan per chain", fx.name, hits, misses)
		}
		for _, c := range fx.chains {
			if cs := b.Stats().Chains[c.name]; cs.CAExecutions != cs.Executions {
				t.Fatalf("%s: chain %s ran %d of %d executions with CA; the windows must measure the compiled executor",
					fx.name, c.name, cs.CAExecutions, cs.Executions)
			}
		}
	}
}

// TestPerLoopExchangeZeroAlloc: per-loop exchanges go through the same
// memoised schedules and the same delivery timeline as chain exchanges, so
// in the steady state one allocates nothing either — serially and pooled,
// and with a fault plan retransmitting and slowing messages (the retry loop
// prices into the backend's reusable timeline storage, not per-exchange
// maps and slices).
func TestPerLoopExchangeZeroAlloc(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	for pname, plan := range map[string]*faults.Plan{
		"clean":  nil,
		"faulty": faults.MustParse("drop=0.2,corrupt=0.05,delay=3x@0.2,straggler=rank1:3x,seed=7"),
	} {
		a := newMiniApp(m)
		b, err := New(Config{
			Prog: a.p, Primary: a.nodes, Assign: partition.KWay(m.NodeAdjacency(), 4), NParts: 4,
			Depth: 2, MaxChainLen: 4, Machine: machine.ARCHER2(), Faults: plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		// The exchange of a loop reading res and pres indirectly: one
		// message per dat, halo kind and neighbour.
		specs := []exchangeSpec{{dat: a.res, execDepth: 1, nonexecDepth: 1}, {dat: a.pres, execDepth: 1, nonexecDepth: 1}}
		post := make([]float64, b.cfg.NParts)
		var retries int64
		step := func() {
			s := b.exchange(specs, false)
			if len(s.msgs) == 0 {
				t.Fatal("fixture exchanges nothing")
			}
			b.deliver(post, s.msgs, "probe", b.maxRetries, netsim.Bulk)
			retries = b.stats.Faults.Retries
		}
		for _, workers := range []int{1, forcedWorkers} {
			b.installPool(workers)
			step() // builds and memoises the schedule, sizes slab and records
			if n := testing.AllocsPerRun(10, step); n != 0 {
				t.Errorf("%s, %d workers: steady-state per-loop exchange allocates %v per run, want 0", pname, workers, n)
			}
		}
		if n := len(b.cfg.Layouts.schedules); n != 1 {
			t.Errorf("%s: %d schedules memoised on the layouts, want the one replayed", pname, n)
		}
		if plan != nil && retries == 0 {
			t.Errorf("%s: no retransmission happened; the faulted case measured the clean path", pname)
		}
	}
}

// BenchmarkPoolDispatch1024 measures the fork/join overhead of dispatching
// 1024 simulated ranks through the persistent pool — the oversubscribed
// regime (ranks >> cores) where the replaced goroutine-per-rank fan-out
// paid 1024 goroutine spawns per fork point. Per-rank work is trivial, so
// ns/op is almost pure dispatch cost.
func BenchmarkPoolDispatch1024(b *testing.B) {
	p := newRankPool(forcedWorkers)
	defer p.close()
	sink := make([]int64, 1024)
	f := func(w, r int) { sink[r]++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.forEach(1024, f)
	}
}

// BenchmarkGoroutinePerRank1024 is the baseline BenchmarkPoolDispatch1024
// replaces: one goroutine per rank per fork, the executor's previous shape.
func BenchmarkGoroutinePerRank1024(b *testing.B) {
	sink := make([]int64, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		wg.Add(1024)
		for r := 0; r < 1024; r++ {
			go func(r int) {
				defer wg.Done()
				sink[r]++
			}(r)
		}
		wg.Wait()
	}
}
