package op2ca

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"op2ca/internal/bench"
	"op2ca/internal/halo"
	"op2ca/internal/hydra"
	"op2ca/internal/mesh"
	"op2ca/internal/mgcfd"
	"op2ca/internal/partition"
)

// benchConfig sizes the paper-experiment benchmarks for testing.B: small
// meshes, paper-shaped rank scaling. For full-scale reproductions run
// cmd/op2ca-bench.
func benchConfig() bench.Config {
	return bench.Config{Nodes8M: 8000, Nodes24M: 24000, RankScale: 0.004, Iters: 1, Parallel: true}
}

// Paper-experiment benchmarks: one per table and figure of the evaluation.

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table2(benchConfig())
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig10(benchConfig())
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig11(benchConfig())
	}
}

func BenchmarkTable3and4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table3and4(benchConfig())
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig12(benchConfig())
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig13(benchConfig())
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table5(benchConfig())
	}
}

// Component microbenchmarks.

func BenchmarkMeshRotor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mesh.RotorForNodes(20000)
	}
}

// BenchmarkPartitionKWay times a warm k-way partition from adjacency lists:
// the pooled scratch is sized by the first call, so B/op is the assignment.
func BenchmarkPartitionKWay(b *testing.B) {
	m := mesh.RotorForNodes(20000)
	adj := m.NodeAdjacency()
	benchWarm(b, func() { partition.KWay(adj, 16) })
}

// BenchmarkPartitionKWayEdges is the same partition from the mesh's edge-pair
// lists, as a run description's "kway" partitioner takes it.
func BenchmarkPartitionKWayEdges(b *testing.B) {
	m := mesh.RotorForNodes(20000)
	benchWarm(b, func() { partition.KWayEdges(m.NNodes, 16, m.EdgeNodes, m.PedgeNodes) })
}

// benchWarm times f after one untimed call, reporting allocations.
func benchWarm(b *testing.B, f func()) {
	f()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
}

func BenchmarkPartitionRIB(b *testing.B) {
	m := mesh.RotorForNodes(20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partition.RIB(m.Coords, 3, 16)
	}
}

func BenchmarkHaloBuildDepth1(b *testing.B) { benchHaloBuild(b, 1) }
func BenchmarkHaloBuildDepth2(b *testing.B) { benchHaloBuild(b, 2) }
func BenchmarkHaloBuildDepth4(b *testing.B) { benchHaloBuild(b, 4) }

func benchHaloBuild(b *testing.B, depth int) {
	m := mesh.RotorForNodes(20000)
	app := hydra.New(m)
	assign := partition.RIB(m.Coords, 3, 16)
	owners, err := halo.DeriveOwnership(app.Prog, app.Nodes, assign)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		halo.Build(app.Prog, owners, 16, depth, 6)
	}
}

// BenchmarkHaloBuildRanks64 is the rank-heavy shape (the benchmark's
// mgcfd-ranks problem): ~95 nodes per rank, so the halo shells outnumber the
// owned elements and per-rank costs dominate per-element ones.
func BenchmarkHaloBuildRanks64(b *testing.B) {
	m := mesh.RotorForNodes(6000)
	app := mgcfd.New(mesh.NewHierarchy(m, 2, true))
	owners, err := halo.DeriveOwnership(app.Prog, app.Primary, partition.KWay(m.NodeAdjacency(), 64))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		halo.Build(app.Prog, owners, 64, 2, 2)
	}
}

// BenchmarkClusterNew is what every served job, restart and restore pays
// before its first iteration: the service's Hydra template (4 200 nodes,
// RIB x 8) opened as a CA backend at depth 2.
func BenchmarkClusterNew(b *testing.B) {
	m := mesh.RotorForNodes(4200)
	app := hydra.New(m)
	cfg := ClusterConfig{
		Prog: app.Prog, Primary: app.Nodes,
		Assign: partition.RIB(m.Coords, 3, 8), NParts: 8,
		Depth: 2, MaxChainLen: 6, CA: true, Chains: hydra.MustPaperConfig(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb, err := NewCluster(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cb.Close()
	}
}

func BenchmarkSeqParLoop(b *testing.B) {
	m := mesh.RotorForNodes(20000)
	h := mesh.NewHierarchy(m, 1, true)
	app := mgcfd.New(h)
	seq := NewSeq()
	app.Init(seq)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.Sweep(seq, app.Levels[0])
	}
}

func benchClusterIteration(b *testing.B, ca bool) {
	m := mesh.RotorForNodes(20000)
	h := mesh.NewHierarchy(m, 1, true)
	app := mgcfd.New(h)
	syn := mgcfd.NewSynthetic(app)
	cb, err := NewCluster(ClusterConfig{
		Prog: app.Prog, Primary: app.Primary,
		Assign: partition.KWay(m.NodeAdjacency(), 8), NParts: 8,
		Depth: 2, MaxChainLen: 8, CA: ca, Parallel: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cb.Close()
	app.Init(cb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syn.Run(cb, 4, ca)
	}
}

func BenchmarkClusterChainOP2(b *testing.B) { benchClusterIteration(b, false) }
func BenchmarkClusterChainCA(b *testing.B)  { benchClusterIteration(b, true) }

// benchChainExec measures steady-state execution of one CA chain, executed
// many times over a small, rank-heavy decomposition where inspection,
// exchange-buffer churn and per-element dispatch dominate. With the plan
// cache on, executions skip ca.Inspect, replay precomputed pack/unpack
// schedules and run the plan's compiled program, so allocs/op drop to
// ~zero; with it off the same executor runs a program compiled per
// execution. The per-loop twin (ca false) runs the same demarcated chain
// through the per-loop interpreter the compiled executor is checked
// against. ns/iter divides by executed core + halo iterations, so the three
// read on one scale whatever halo depth they execute:
//
//	go test -run '^$' -bench ChainExec -benchtime 20x .
func benchChainExec(b *testing.B, ca, noCache bool) {
	m := mesh.RotorForNodes(3000)
	h := mesh.NewHierarchy(m, 1, true)
	app := mgcfd.New(h)
	syn := mgcfd.NewSynthetic(app)
	cb, err := NewCluster(ClusterConfig{
		Prog: app.Prog, Primary: app.Primary,
		Assign: partition.KWay(m.NodeAdjacency(), 16), NParts: 16,
		Depth: 2, MaxChainLen: 8, CA: ca, NoPlanCache: noCache,
	})
	if err != nil {
		b.Fatal(err)
	}
	app.Init(cb)
	syn.Run(cb, 1, true) // warm: inspection + schedule build on first executions
	iters0 := executedIters(cb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// 10 chained executions per op: the steady state the cache targets.
		for j := 0; j < 10; j++ {
			syn.Run(cb, 1, true)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(executedIters(cb)-iters0), "ns/iter")
}

// executedIters totals the core and halo iterations cb has executed so far,
// inside CA chains and loop by loop.
func executedIters(cb *ClusterBackend) int64 {
	var n int64
	st := cb.Stats()
	for _, l := range st.Loops {
		n += l.CoreIters + l.HaloIters
	}
	for _, c := range st.Chains {
		n += c.CoreIters + c.HaloIters
	}
	return n
}

func BenchmarkChainExecCached(b *testing.B)   { benchChainExec(b, true, false) }
func BenchmarkChainExecUncached(b *testing.B) { benchChainExec(b, true, true) }
func BenchmarkChainExecPerLoop(b *testing.B)  { benchChainExec(b, false, false) }

// BenchmarkChainExecParallel measures wall-clock scaling of the persistent
// worker-pool rank executor: the same cached-plan CA chain workload as
// BenchmarkChainExecCached, but compute-sized and built with Parallel on,
// so `-cpu 1,4,8` sweeps the pool width (the backend sizes its pool from
// GOMAXPROCS at construction, which -cpu sets per variant). The -cpu 1
// variant dispatches serially; the ratio of its ns/op to a wider variant's
// is the host-parallel speedup CI gates on.
func BenchmarkChainExecParallel(b *testing.B) {
	m := mesh.RotorForNodes(20000)
	h := mesh.NewHierarchy(m, 1, true)
	app := mgcfd.New(h)
	syn := mgcfd.NewSynthetic(app)
	cb, err := NewCluster(ClusterConfig{
		Prog: app.Prog, Primary: app.Primary,
		Assign: partition.KWay(m.NodeAdjacency(), 16), NParts: 16,
		Depth: 2, MaxChainLen: 8, CA: true, Parallel: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cb.Close()
	app.Init(cb)
	syn.Run(cb, 4, true) // warm: inspection + schedule build on first executions
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syn.Run(cb, 4, true)
	}
}

func BenchmarkHydraIterationCA(b *testing.B) {
	m := mesh.RotorForNodes(20000)
	app := hydra.New(m)
	cb, err := NewCluster(ClusterConfig{
		Prog: app.Prog, Primary: app.Nodes,
		Assign: partition.RIB(m.Coords, 3, 8), NParts: 8,
		Depth: 2, MaxChainLen: 6, CA: true,
		Chains: hydra.MustPaperConfig(), Parallel: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cb.Close()
	app.RunSetup(cb, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.RunIteration(cb, true)
	}
}

// BenchmarkFramePlacement is ROADMAP item 15's reproducer, a measurement
// that gates nothing: Hydra's RunIteration (4 200 nodes, RIB x 8, serial),
// CA on and off, timed under a caller frame padded from 0 to 4 KiB in
// 16-byte steps, visited in shuffled order, keeping the least of two runs
// per offset and pass (-benchtime Nx makes N passes). spread_x is the slowest
// offset's time over the fastest's: 1 when a job's speed does not depend on
// where its frames sit. A control series times offset 0 the same way after
// every 16th offset of the scan, and control_spread_x is its slowest over its
// fastest: what drift over time alone spreads. A window read off the scan is
// placement evidence only where spread_x clearly exceeds control_spread_x.
//
//	go test -run '^$' -bench '^BenchmarkFramePlacement$' -benchtime 1x .
func BenchmarkFramePlacement(b *testing.B) {
	const step, span, runs = 16, 4096, 2
	m := mesh.RotorForNodes(4200)
	assign := partition.RIB(m.Coords, 3, 8)
	for _, ca := range []bool{true, false} {
		name := "op2"
		if ca {
			name = "ca"
		}
		b.Run(name, func(b *testing.B) {
			app := hydra.New(m)
			cb, err := NewCluster(ClusterConfig{
				Prog: app.Prog, Primary: app.Nodes, Assign: assign, NParts: 8,
				Depth: 2, MaxChainLen: 6, CA: ca, Chains: hydra.MustPaperConfig(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer cb.Close()
			app.RunSetup(cb, ca)
			work := func() { app.RunIteration(cb, ca) }
			work() // warm: inspection and schedules
			least := make([]time.Duration, span/step)
			for i := range least {
				least[i] = time.Duration(math.MaxInt64)
			}
			// at times work under off bytes of padding, the least of runs.
			at := func(off int) time.Duration {
				best := time.Duration(math.MaxInt64)
				for range runs {
					t0 := time.Now()
					padded(off, work)
					best = min(best, time.Since(t0))
				}
				return best
			}
			var control []time.Duration
			rng := rand.New(rand.NewPCG(15, 16))
			b.ResetTimer()
			for range b.N {
				for k, i := range rng.Perm(len(least)) {
					least[i] = min(least[i], at(i*step))
					if k%16 == 15 {
						control = append(control, at(0))
					}
				}
			}
			b.ReportMetric(float64(slices.Max(least))/float64(slices.Min(least)), "spread_x")
			b.ReportMetric(float64(slices.Max(control))/float64(slices.Min(control)), "control_spread_x")
		})
	}
}

// padded calls work under off more bytes of stack, off a multiple of 16: a
// descend level is 32 bytes of frame on amd64, and descend16's pad adds 16.
func padded(off int, work func()) {
	if off%32 != 0 {
		descend16(off/32, work)
		return
	}
	descend(off/32, work)
}

//go:noinline
func descend(n int, work func()) {
	if n > 0 {
		descend(n-1, work)
		return
	}
	work()
}

// descend16 is descend with a frame 16 bytes larger, once.
//
//go:noinline
func descend16(n int, work func()) {
	var pad [16]byte
	if n > 0 {
		descend(n-1, work)
		return
	}
	work()
	padSink = pad[n&15]
}

// padSink keeps descend16's pad a live local.
var padSink byte
