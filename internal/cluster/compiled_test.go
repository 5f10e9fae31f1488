package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"op2ca/internal/ca"
	"op2ca/internal/chaincfg"
	"op2ca/internal/core"
	"op2ca/internal/faults"
	"op2ca/internal/machine"
	"op2ca/internal/mesh"
	"op2ca/internal/partition"
)

// Global-reading kernels for the compiled-executor tests (the propApp
// templates carry none): g is broadcast loop-constant data.
var (
	kGblDirect = &core.Kernel{Name: "p_gbldir", Fn: func(a [][]float64) {
		q, g := a[0], a[1]
		q[0] = q[0]*g[0] + g[1]
	}}
	kGblInc = &core.Kernel{Name: "p_gblinc", Fn: func(a [][]float64) {
		dst, src, g := a[0], a[1], a[2]
		dst[0] += src[0]*g[0] - g[1]
	}}
)

// shapeLoop builds one loop of the named argument shape over a's dats; the
// dat choices come from rng, so a table row's seed fixes them for every
// backend the row runs.
func (a *propApp) shapeLoop(shape string, rng *rand.Rand, gbl []float64) core.Loop {
	dst := a.q[rng.Intn(len(a.q))]
	src := a.q[rng.Intn(len(a.q))]
	for src == dst {
		src = a.q[rng.Intn(len(a.q))]
	}
	switch shape {
	case "inc": // two indirect slots incremented, two read
		return core.NewLoop(kInc, a.edges,
			core.ArgDat(dst, 0, a.e2n, core.Inc), core.ArgDat(dst, 1, a.e2n, core.Inc),
			core.ArgDat(src, 0, a.e2n, core.Read), core.ArgDat(src, 1, a.e2n, core.Read))
	case "incw": // indirect slots mixed with a direct read
		return core.NewLoop(kIncW, a.edges,
			core.ArgDat(dst, 0, a.e2n, core.Inc),
			core.ArgDatDirect(a.w, core.Read),
			core.ArgDat(src, 1, a.e2n, core.Read))
	case "periodic": // arity-2 read-write over a sparse set
		return core.NewLoop(kPerRW, a.pedges,
			core.ArgDat(dst, 0, a.p2n, core.ReadWrite), core.ArgDat(dst, 1, a.p2n, core.ReadWrite))
	case "bnd": // arity-1 map
		return core.NewLoop(kBndInc, a.bnd,
			core.ArgDat(dst, 0, a.b2n, core.Inc), core.ArgDat(src, 0, a.b2n, core.Read))
	case "vec": // VecAll: Map.Arity views per argument
		return core.NewLoop(kVecInc, a.edges,
			core.ArgDatVec(dst, a.e2n, core.Inc), core.ArgDatVec(src, a.e2n, core.Read))
	case "dirw": // all-direct write: storage-order run plus a non-execute refresh range
		return core.NewLoop(kDirW, a.nodes,
			core.ArgDatDirect(dst, core.Write), core.ArgDatDirect(src, core.Read))
	case "dirrw": // all-direct read-modify-write
		return core.NewLoop(kDirRW, a.nodes, core.ArgDatDirect(dst, core.ReadWrite))
	case "edgerw": // direct write fed by indirect reads
		return core.NewLoop(kEdgeRW, a.edges,
			core.ArgDatDirect(a.w, core.ReadWrite),
			core.ArgDat(dst, 0, a.e2n, core.Read), core.ArgDat(src, 1, a.e2n, core.Read))
	case "gbldir": // all-direct with a global Read
		return core.NewLoop(kGblDirect, a.nodes,
			core.ArgDatDirect(dst, core.ReadWrite), core.ArgGbl(gbl, core.Read))
	case "gblinc": // indirect with a global Read
		return core.NewLoop(kGblInc, a.edges,
			core.ArgDat(dst, 0, a.e2n, core.Inc), core.ArgDat(src, 1, a.e2n, core.Read),
			core.ArgGbl(gbl, core.Read))
	}
	panic("unknown shape " + shape)
}

// gather returns every dat of the app as gathered from b (nil b: the
// program's own global storage, i.e. the sequential reference's state).
func (a *propApp) gather(b *Backend) map[string][]float64 {
	out := map[string][]float64{}
	for _, d := range append(append([]*core.Dat(nil), a.q...), a.w) {
		if b == nil {
			out[d.Name] = d.Data
		} else {
			out[d.Name] = b.GatherDat(d)
		}
	}
	return out
}

// TestCompiledChainDifferential: the compiled chain executor, the
// independently written per-loop interpreter (runLoopOnRank, reached with
// CA off) and core.Seq must leave bitwise-identical state, over a seeded
// table of argument shapes and of the backend modes that reach the
// executor differently.
func TestCompiledChainDifferential(t *testing.T) {
	m := mesh.Rotor(7, 6, 5)
	const nparts, reps = 5, 4
	rows := []struct {
		name   string
		shapes []string
		depth  int // 0: len(shapes)+1, always enough
		tweak  func(*Config)
		// degrades: the row's fault plan loses every message until the run
		// heals the network after its second repetition.
		degrades bool
	}{
		{name: "indirect-slots", shapes: []string{"inc", "incw", "bnd"}},
		{name: "periodic", shapes: []string{"inc", "periodic", "inc"}},
		{name: "vecall", shapes: []string{"vec", "edgerw", "vec"}},
		{name: "all-direct", shapes: []string{"dirw", "dirrw"}},
		{name: "nonexec-refresh", shapes: []string{"dirw", "inc", "dirrw", "vec"}},
		{name: "global-read", shapes: []string{"gbldir", "gblinc", "inc"}},
		{name: "he-below-depth", shapes: []string{"incw", "edgerw"}, depth: 5},
		{name: "gpudirect", shapes: []string{"inc", "dirw", "inc"},
			tweak: func(c *Config) { c.GPUDirect, c.Machine = true, machine.Cirrus() }},
		{name: "ungrouped-overlap", shapes: []string{"inc", "vec", "bnd"},
			tweak: func(c *Config) { c.NoGroupedMsgs, c.Overlap = true, true }},
		{name: "no-plan-cache", shapes: []string{"dirw", "inc", "vec"},
			tweak: func(c *Config) { c.NoPlanCache = true }},
		{name: "parallel", shapes: []string{"inc", "dirw", "gblinc"},
			tweak: func(c *Config) { c.Parallel = true }},
		{name: "fault-degraded", shapes: []string{"inc", "incw", "inc"}, degrades: true,
			tweak: func(c *Config) { c.Faults = &faults.Plan{Seed: 9, Drop: 1, MaxRetries: 1} }},
	}
	for seed, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			// run executes the row's chain reps times on one backend kind
			// (core.Seq unless cluster) and returns the final state.
			run := func(useCA, cluster bool) (map[string][]float64, *Backend) {
				a := newPropApp(m)
				rng := rand.New(rand.NewSource(int64(seed)))
				gbl := []float64{2, 1}
				loops := make([]core.Loop, len(row.shapes))
				for i, s := range row.shapes {
					loops[i] = a.shapeLoop(s, rng, gbl)
				}
				var be core.Backend = core.NewSeq()
				var cb *Backend
				if cluster {
					cfg := Config{
						Prog: a.p, Primary: a.nodes, NParts: nparts,
						Assign: partition.KWay(m.NodeAdjacency(), nparts),
						Depth:  row.depth, MaxChainLen: len(loops), CA: useCA, Machine: machine.ARCHER2(),
					}
					if cfg.Depth == 0 {
						cfg.Depth = len(loops) + 1
					}
					if row.tweak != nil {
						row.tweak(&cfg)
					}
					var err error
					if cb, err = New(cfg); err != nil {
						t.Fatal(err)
					}
					t.Cleanup(cb.Close)
					if cfg.Parallel {
						cb.installPool(forcedWorkers)
					}
					be = cb
				}
				for rep := 0; rep < reps; rep++ {
					if rep == 2 && cb != nil && cb.cfg.Faults != nil {
						cb.cfg.Faults.Drop = 0 // the backend shares the plan pointer
					}
					be.ChainBegin("shape")
					for _, l := range loops {
						be.ParLoop(l)
					}
					be.ChainEnd()
				}
				return a.gather(cb), cb
			}
			want, _ := run(false, false)
			perLoop, _ := run(false, true)
			compiled, cb := run(true, true)
			compareExact(t, "per-loop vs seq", perLoop, want)
			compareExact(t, "compiled vs seq", compiled, want)

			cs := cb.Stats().Chains["shape"]
			if cs == nil || cs.CAExecutions == 0 {
				t.Fatalf("chain shape never ran the compiled executor: %+v", cs)
			}
			// Repetition 0 exchanges nothing and runs compiled; 1 loses its
			// exchange, degrades to per-loop and evicts the plan; 2 and 3 run
			// healed, on a re-inspected and recompiled plan.
			if _, misses, inv := cb.PlanCacheStats(); row.degrades && (inv != 1 || misses != 2 || cs.CAExecutions != 3) {
				t.Errorf("invalidations=%d misses=%d CAExecutions=%d, want 1/2/3", inv, misses, cs.CAExecutions)
			}
		})
	}
}

// TestCompiledChainRebindsKernelAndGlobals: a plan's program caches only
// what the chain signature covers. Re-executing one signature with a
// different kernel closure (same name) and a different Gbl buffer must run
// the new closure against the new buffer — Hydra's RK stages do exactly
// this — while still replaying the one cached plan.
func TestCompiledChainRebindsKernelAndGlobals(t *testing.T) {
	m := mesh.Rotor(7, 6, 5)
	run := func(cluster bool) (map[string][]float64, *Backend) {
		a := newPropApp(m)
		var be core.Backend = core.NewSeq()
		var cb *Backend
		if cluster {
			var err error
			cb, err = New(Config{
				Prog: a.p, Primary: a.nodes, Assign: partition.KWay(m.NodeAdjacency(), 4), NParts: 4,
				Depth: 3, MaxChainLen: 2, CA: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cb.Close)
			be = cb
		}
		for step := 0; step < 3; step++ {
			// Per-call closure and per-call buffer, one kernel name.
			offset := float64(step + 1)
			k := &core.Kernel{Name: "stage", Fn: func(v [][]float64) {
				v[0][0] = v[0][0]*v[1][0] + offset
			}}
			gbl := []float64{float64(2 + step)}
			be.ChainBegin("rk")
			be.ParLoop(core.NewLoop(k, a.nodes,
				core.ArgDatDirect(a.q[0], core.ReadWrite), core.ArgGbl(gbl, core.Read)))
			be.ParLoop(core.NewLoop(kInc, a.edges,
				core.ArgDat(a.q[1], 0, a.e2n, core.Inc), core.ArgDat(a.q[1], 1, a.e2n, core.Inc),
				core.ArgDat(a.q[0], 0, a.e2n, core.Read), core.ArgDat(a.q[0], 1, a.e2n, core.Read)))
			be.ChainEnd()
		}
		return a.gather(cb), cb
	}
	want, _ := run(false)
	got, cb := run(true)
	compareExact(t, "rebinding", got, want)
	if hits, misses, _ := cb.PlanCacheStats(); hits != 2 || misses != 1 {
		t.Fatalf("plan cache hits=%d misses=%d, want 2/1: the three steps must replay one compiled plan", hits, misses)
	}
}

// TestChainUnderReachFailsBeforeMutating: a chain whose loops would
// dereference an element the rank's halo does not hold is refused by plan
// validation with a typed *HaloDepthError naming rank, loop, iteration and
// map entry — before the chain's exchange or any kernel has changed a
// value. The chain is the mini-app's, which inspection wants at depth 2,
// forced onto a depth-1 backend by a configuration override. halo.Build
// closes every execute shell it builds under every map, so the absent entry
// such an under-built halo would hold is planted by hand. The interpreter
// this replaced panicked mid-loop, with increments half applied.
func TestChainUnderReachFailsBeforeMutating(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	chains, err := chaincfg.ParseString("chain synth maxhe=1\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, forcedWorkers} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			a := newMiniApp(m)
			a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
			b, err := New(Config{
				Prog: a.p, Primary: a.nodes, Assign: partition.KWay(m.NodeAdjacency(), 4), NParts: 4,
				Depth: 1, MaxChainLen: 4, CA: true, Chains: chains, Parallel: workers > 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			b.installPool(workers)

			// One un-chained step first: it leaves res and flux with dirty
			// halos, so the chained step's exchange would move values.
			a.run(b, 1, false)
			loops := []core.Loop{
				core.NewLoop(kUpdate, a.edges,
					core.ArgDat(a.res, 0, a.e2n, core.Inc), core.ArgDat(a.res, 1, a.e2n, core.Inc),
					core.ArgDat(a.pres, 0, a.e2n, core.Read), core.ArgDat(a.pres, 1, a.e2n, core.Read)),
				core.NewLoop(kFlux, a.edges,
					core.ArgDat(a.flux, 0, a.e2n, core.Inc), core.ArgDat(a.flux, 1, a.e2n, core.Inc),
					core.ArgDat(a.res, 0, a.e2n, core.Read), core.ArgDat(a.res, 1, a.e2n, core.Read),
					core.ArgDatDirect(a.ew, core.Read)),
			}
			if plan, err := ca.Inspect("synth", loops, nil); err != nil || plan.MaxDepth != 2 {
				t.Fatalf("fixture: unconfigured chain inspects to depth %d (err %v), want 2", plan.MaxDepth, err)
			}

			// Plant the absent marker in the last execute-shell edge of the
			// highest rank that has one.
			want := HaloDepthError{Rank: -1, Loop: "update", Map: "e2n", Slot: 1}
			for r := b.cfg.NParts - 1; r >= 0 && want.Rank < 0; r-- {
				if sl := b.layouts[r].SetL(a.edges); sl.ExecEnd(1) > sl.NOwned {
					want.Rank, want.Iter = r, sl.ExecEnd(1)-1
				}
			}
			if want.Rank < 0 {
				t.Fatal("fixture: no rank imports an execute-shell edge")
			}
			b.layouts[want.Rank].MapL(a.e2n)[want.Iter*2+want.Slot] = -1

			before := make([][][]float64, len(b.dats))
			for r := range b.dats {
				for _, d := range b.dats[r] {
					before[r] = append(before[r], append([]float64(nil), d...))
				}
			}
			// Twice: a refused plan is not cached half-built, so a retry on
			// the same backend is refused the same way.
			for attempt := 0; attempt < 2; attempt++ {
				func() {
					defer func() {
						if he, ok := recover().(*HaloDepthError); !ok || *he != want {
							t.Fatalf("attempt %d: recovered %#v, want %#v", attempt, he, &want)
						}
					}()
					b.ChainBegin("synth")
					for _, l := range loops {
						b.ParLoop(l)
					}
					b.ChainEnd()
					t.Fatalf("attempt %d: under-reaching chain executed", attempt)
				}()
				for r := range b.dats {
					for d := range b.dats[r] {
						for i, v := range b.dats[r][d] {
							if v != before[r][d][i] {
								t.Fatalf("attempt %d: rank %d dat %s value %d changed (%g -> %g) although the chain was refused",
									attempt, r, a.p.Dats[d].Name, i, before[r][d][i], v)
							}
						}
					}
				}
			}
		})
	}
}
