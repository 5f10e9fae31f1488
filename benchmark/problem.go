package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"op2ca/internal/chaincfg"
	"op2ca/internal/cluster"
	"op2ca/internal/core"
	"op2ca/internal/hydra"
	"op2ca/internal/machine"
	"op2ca/internal/mesh"
	"op2ca/internal/mgcfd"
	"op2ca/internal/partition"
)

// problem describes one distributed run: which mini-app, on which rotor
// mesh, partitioned how, over how many simulated ranks, on which machine
// model. It is the unit the set-up pipeline and the per-layer ledger work on;
// every workload has one (its own problem for mgcfd-*, a representative
// point or job for paper-sweep and serve-mixed).
type problem struct {
	App     string // "mgcfd" or "hydra"
	Dims    [3]int // rotor generator dimensions
	Levels  int    // mgcfd multigrid levels
	NChains int    // mgcfd synthetic chain pairs per iteration
	Ranks   int
	Part    string // "kway" or "rib"
	Overlap bool
	// LatencyX and BandwidthX scale the ARCHER2 model's network latency and
	// bandwidth: the seed's handle on virtual time.
	LatencyX, BandwidthX float64
	// Epoch (at least 1) is the number of ops between re-initialisations. MG-CFD's
	// explicit smoother diverges on these coarse synthetic meshes after a
	// few dozen iterations, so a long run is a sequence of short solves
	// from freestream; an epoch is also the cycle over which the
	// deterministic metrics are taken.
	Epoch int
}

// geometry is everything derived from the problem before a backend exists.
type geometry struct {
	mesh   *mesh.FV3D
	hier   *mesh.Hierarchy // mgcfd only
	adj    [][]int32
	assign partition.Assignment
}

// instance is one declaration of the app's program (fresh sets, maps and
// dats). Cluster backends copy dat values at construction, so several may
// share an instance; the sequential reference mutates them and needs its own.
type instance struct {
	prog     *core.Program
	primary  *core.Set
	maxChain int
	chains   *chaincfg.Config
	// init starts an epoch; op is one main-loop iteration.
	init func(b core.Backend, chained bool)
	op   func(b core.Backend, chained bool)
}

// genMesh runs the mesh layer: rotor, multigrid hierarchy, node adjacency.
func (p problem) genMesh() *geometry {
	g := &geometry{mesh: mesh.Rotor(p.Dims[0], p.Dims[1], p.Dims[2])}
	if p.App == "mgcfd" {
		g.hier = mesh.NewHierarchy(g.mesh, p.Levels, true)
	}
	g.adj = g.mesh.NodeAdjacency()
	return g
}

// partition runs the problem's partitioner.
func (p problem) partition(g *geometry) partition.Assignment {
	if p.Part == "kway" {
		return partition.KWay(g.adj, p.Ranks)
	}
	return partition.RIB(g.mesh.Coords, 3, p.Ranks)
}

func (p problem) newInstance(g *geometry) *instance {
	if p.App == "hydra" {
		app := hydra.New(g.mesh)
		return &instance{
			prog: app.Prog, primary: app.Nodes, maxChain: 6, chains: hydra.MustPaperConfig(),
			init: func(b core.Backend, chained bool) { app.RunSetup(b, chained) },
			op:   func(b core.Backend, chained bool) { app.RunIteration(b, chained) },
		}
	}
	app := mgcfd.New(g.hier)
	syn := mgcfd.NewSynthetic(app)
	return &instance{
		prog: app.Prog, primary: app.Primary, maxChain: 2 * p.NChains,
		init: func(b core.Backend, _ bool) { app.Init(b) },
		op: func(b core.Backend, chained bool) {
			syn.Run(b, p.NChains, chained)
			app.Cycle(b)
		},
	}
}

// config is the cluster configuration every backend of the problem starts
// from: CA on the ARCHER2 model, serial dispatch. Callers flip single fields
// for the OP2, uncached, pooled, GPU and tuned variants.
func (p problem) config(in *instance, g *geometry) cluster.Config {
	mach := machine.ARCHER2()
	mach.Latency *= p.LatencyX
	mach.Bandwidth *= p.BandwidthX
	return cluster.Config{
		Prog: in.prog, Primary: in.primary, Assign: g.assign, NParts: p.Ranks,
		Depth: 2, MaxChainLen: in.maxChain, CA: true, Chains: in.chains,
		Machine: mach, Overlap: p.Overlap,
	}
}

// run is a backend that is set up and warm: the first timed op can start.
type run struct {
	p   problem
	in  *instance
	g   *geometry
	cfg cluster.Config
	cb  *cluster.Backend
	b   core.Backend // cb, or a spanBackend around it
	// warmClock is the backend's virtual clock after the warm op.
	warmClock float64
}

// start builds a backend under cfg, initialises the app and runs one warm
// op (first inspection, plan-cache fill, buffer growth).
func (p problem) start(in *instance, g *geometry, cfg cluster.Config) (*run, error) {
	cb, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	r := &run{p: p, in: in, g: g, cfg: cfg, cb: cb, b: cb}
	r.warm()
	return r, nil
}

func (r *run) warm() {
	r.in.init(r.b, r.cfg.CA)
	r.in.op(r.b, r.cfg.CA)
	r.warmClock = r.cb.MaxClock()
}

// setup is the whole path a researcher waits for before the main loop:
// mesh, hierarchy, partition, cluster.New, app init, one warm op.
func (p problem) setup() (*run, error) {
	g := p.genMesh()
	g.assign = p.partition(g)
	in := p.newInstance(g)
	return p.start(in, g, p.config(in, g))
}

// epoch re-initialises the app and runs Epoch ops, handing each to run so
// the caller can time it. The re-initialisation is part of the wall time but
// of no op.
func (r *run) epoch(run func(op func())) {
	r.in.init(r.b, r.cfg.CA)
	for i := 0; i < r.p.Epoch; i++ {
		run(func() { r.in.op(r.b, r.cfg.CA) })
	}
}

// untimed runs an op of an epoch that nobody times.
func untimed(op func()) { op() }

// seqEpoch runs the warm op and one epoch on the sequential reference,
// handing each op of the epoch to run, and returns the checksum of the final
// state.
func (p problem) seqEpoch(g *geometry, run func(op func())) string {
	in := p.newInstance(g)
	seq := core.NewSeq()
	in.init(seq, false)
	in.op(seq, false)
	in.init(seq, false)
	for i := 0; i < p.Epoch; i++ {
		run(func() { in.op(seq, false) })
	}
	return checksumGlobal(in.prog)
}

// checksumGlobal hashes the global dat values exactly as
// cluster.Backend.ChecksumDats hashes the gathered ones, so a sequential run
// and a distributed run of the same program compare by string equality.
func checksumGlobal(prog *core.Program) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, d := range prog.Dats {
		h.Write([]byte(d.Name))
		for _, v := range d.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// allFinite reports whether every value of d on the backend is a finite
// number: the guard that the benchmark times arithmetic, not NaN propagation.
func allFinite(cb *cluster.Backend, prog *core.Program) bool {
	for _, d := range prog.Dats {
		for _, v := range cb.GatherDat(d) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}
