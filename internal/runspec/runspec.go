// Package runspec is the one description of an application run and the one
// driver that executes it. A Spec names the app (MG-CFD with synthetic
// chains, or the Hydra proxy with the Section 3.4 chain configuration), its
// size, the back-end and every result-bearing knob; Resolve parses the
// embedded spec grammars and derives the halo depth; NewProblem builds what
// attempts share (mesh, multigrid hierarchy, partition); BuildOn constructs
// one attempt over a Problem (app instance, cluster configuration, backend —
// fresh or from a snapshot) and BuildFrom also reads the resume iteration
// from the snapshot's note; Drive iterates it, writing a checkpoint-ring
// generation at the cadence; VerifyAgainstSeq replays it on the sequential
// reference.
//
// Every front-end drives this package and adds only what is its own: the
// job service (internal/service) adds the wire grammar's defaults and
// admission bounds, queueing, placement and preemption; cmd/op2ca-run adds
// flags, reports and exit codes; the paper harness (internal/bench) adds
// its tables, labels and warm-up / measured-window loops (Init, Step, and
// Open for the chain-only ablations). Outside internal/cluster this is the
// only package that assembles a cluster.Config.
package runspec

import (
	"fmt"
	"io"
	"math"
	"strings"

	"op2ca/internal/ca"
	"op2ca/internal/chaincfg"
	"op2ca/internal/checkpoint"
	"op2ca/internal/cluster"
	"op2ca/internal/core"
	"op2ca/internal/faults"
	"op2ca/internal/hydra"
	"op2ca/internal/machine"
	"op2ca/internal/mesh"
	"op2ca/internal/mgcfd"
	"op2ca/internal/obs"
	"op2ca/internal/partition"
	"op2ca/internal/supervise"
)

// Spec describes a run. Sizes carry no defaults here: each front-end has
// its own (a served job is small, a command-line run is not) and fills them
// in before Resolve.
type Spec struct {
	// App is "mgcfd" or "hydra".
	App string
	// MeshNodes is the approximate node count of the synthetic rotor mesh
	// (finest level for mgcfd).
	MeshNodes int
	// Levels (multigrid depth) and NChains (synthetic chain pairs per
	// iteration, 0 disables) are mgcfd-only.
	Levels, NChains int
	// Ranks is the simulated MPI rank count; ignored by the seq backend.
	Ranks int
	// Backend is "seq" (the sequential reference), "op2" or "ca".
	Backend string
	// Overlap runs CA chains with overlapped exchanges (cluster.Config.Overlap).
	Overlap bool
	// AutoTune lets the model-driven autotuner pick each chain's policy.
	AutoTune bool
	// Safe (hydra only) drops the configured halo extensions and lets the
	// inspector's conservative analysis choose.
	Safe bool
	// Iters is the main-loop iteration count.
	Iters int
	// Machine is archer2, cirrus or laptop.
	Machine string
	// Partitioner is kway, rib, rcb or block; "" picks the app's default
	// (kway for mgcfd, rib for hydra).
	Partitioner string
	// Chains (hydra only) is the text of a chaincfg file replacing the
	// built-in paper configuration.
	Chains string
	// Faults is a fault-injection plan in the -faults grammar.
	Faults string
	// Supervise is a -supervise spec; "" means unsupervised.
	Supervise string
	// CheckpointEvery is the ring snapshot cadence in iterations; 0 never
	// snapshots.
	CheckpointEvery int
}

// Run is a resolved Spec: the normalised description plus every parsed
// artefact an attempt needs. Tracer, Parallel, Assignments and Slabs are the
// host-side knobs a front-end may set before Build; none changes a result.
//
// The paper harness's ablations pin what no Spec field (and so no flag and
// no served job) can say, by overwriting a resolved Run before building: a
// deeper Depth, a Chains file for the synthetic chain, a modified Machine,
// and the three fields below.
type Run struct {
	Spec      Spec
	Plan      *faults.Plan
	Supervise supervise.Spec
	Machine   *machine.Machine
	Chains    *chaincfg.Config // hydra, unless Safe
	Depth     int              // halo shells the back-end builds

	Tracer   *obs.Tracer
	Parallel bool
	// Assignments, when set, is where NewProblem looks for the run's
	// partition before computing it, and where it leaves one it computed. A
	// front-end that runs many descriptions sets it (the job service); one
	// that runs a single description, or times the partitioners, leaves it
	// nil.
	Assignments Assignments
	// Slabs, when set, lends every backend built for the run its flat storage
	// and takes it back on Close (cluster.Config.Slabs). The other half of
	// Assignments: set by the front-end that builds backend after backend (the
	// job service), nil for one that builds a few.
	Slabs cluster.SlabLender

	// NoGroupedMsgs and GPUDirect are cluster.Config's ablation knobs of the
	// same names.
	NoGroupedMsgs, GPUDirect bool
	// Demarcate issues the app's ChainBegin/ChainEnd under the op2 backend
	// too. The chains still execute loop by loop — no checksum or clock
	// moves — but the run's Stats then carry per-chain rows and
	// chain-prefixed loop rows, which the harness's per-chain tables read.
	Demarcate bool
}

// SizeError reports sizes that do not make a problem: a mesh of no nodes, a
// negative iteration count, more ranks than the generated mesh has nodes.
// The grammar is fine and the request is not, so every front-end says so
// its own way — a command exits 2 (a usage error), the service fails the
// job, the harness raises it for op2ca-bench to report — and none reaches
// the generator's or a partitioner's panic with it.
type SizeError struct{ msg string }

func (e *SizeError) Error() string { return e.msg }

func sizeErrorf(format string, a ...any) error { return &SizeError{fmt.Sprintf(format, a...)} }

// Resolve checks s against the run grammar — names, app-specific fields,
// the embedded chaincfg/faults/supervise specs, sizes that are sizes — fills
// the app's default partitioner, and derives the halo depth.
func (s Spec) Resolve() (*Run, error) {
	r := &Run{Depth: 2}
	var err error
	switch s.App {
	case "mgcfd":
		if s.Chains != "" || s.Safe {
			return nil, fmt.Errorf("chains/safe are hydra-only")
		}
		if s.Partitioner == "" {
			s.Partitioner = "kway"
		}
	case "hydra":
		if s.Levels != 0 || s.NChains != 0 {
			return nil, fmt.Errorf("levels/nchains are mgcfd-only")
		}
		if s.Partitioner == "" {
			s.Partitioner = "rib"
		}
		switch {
		case s.Safe:
			// No configured extensions: the inspector's conservative
			// analysis chooses; the weight/period chains need up to 5 shells.
			r.Depth = 5
		case s.Chains == "":
			r.Chains = hydra.MustPaperConfig()
		default:
			if r.Chains, err = chaincfg.Parse(strings.NewReader(s.Chains)); err != nil {
				return nil, err
			}
			r.Depth = haloDepth(r.Chains)
		}
	default:
		return nil, fmt.Errorf("app %q: want mgcfd or hydra", s.App)
	}
	switch s.Backend {
	case "seq", "op2", "ca":
	default:
		return nil, fmt.Errorf("backend %q: want seq, op2 or ca", s.Backend)
	}
	switch s.Partitioner {
	case "kway", "rib", "rcb", "block":
	default:
		return nil, fmt.Errorf("partitioner %q: want kway, rib, rcb or block", s.Partitioner)
	}
	if r.Machine, err = machineByName(s.Machine); err != nil {
		return nil, err
	}
	if s.Faults != "" {
		if r.Plan, err = faults.Parse(s.Faults); err != nil {
			return nil, err
		}
	}
	if r.Supervise, err = supervise.ParseSpec(s.Supervise); err != nil {
		return nil, err
	}
	// The upper end of the rank range is known once the generator has rounded
	// the mesh: see assignment.
	switch {
	case s.MeshNodes < 1:
		return nil, sizeErrorf("mesh nodes %d: want at least 1", s.MeshNodes)
	case s.Iters < 0:
		return nil, sizeErrorf("iterations %d: want 0 or more", s.Iters)
	case s.Levels < 0 || s.NChains < 0:
		return nil, sizeErrorf("levels %d, nchains %d: want 0 or more", s.Levels, s.NChains)
	case s.CheckpointEvery < 0:
		return nil, sizeErrorf("checkpoint cadence %d: want 0 (never) or more", s.CheckpointEvery)
	case s.Backend != "seq" && s.Ranks < 1:
		return nil, sizeErrorf("ranks %d outside [1, the node count of the generated mesh]", s.Ranks)
	}
	r.Spec = s
	return r, nil
}

// haloDepth is the halo depth a custom chain configuration needs: a file
// may pin deeper extensions than the paper's two shells, so build for the
// deepest one it names.
func haloDepth(cfg *chaincfg.Config) int {
	depth := 2
	for _, name := range cfg.Order {
		c := cfg.Chains[name]
		depth = max(depth, c.MaxHE)
		for _, l := range c.Loops {
			depth = max(depth, l.HE)
		}
	}
	return depth
}

// machineByName resolves a machine model name.
func machineByName(name string) (*machine.Machine, error) {
	switch name {
	case "archer2":
		return machine.ARCHER2(), nil
	case "cirrus":
		return machine.Cirrus(), nil
	case "laptop":
		return machine.Laptop(), nil
	}
	return nil, fmt.Errorf("unknown machine %q", name)
}

// AssignmentKey holds the fields of a run description that determine its
// partition assignment: the mesh generator's input, the partitioner and the
// rank count — not the app, the backend or anything after set-up. Equal keys
// name byte-identical assignments.
type AssignmentKey struct {
	MeshNodes   int
	Partitioner string
	Ranks       int
}

// Assignments keeps partition assignments between runs. Both methods are
// safe for concurrent use, and neither side holds on to the other's slice:
// Load returns a slice that is the caller's alone (nil when it has none under
// k), Store copies what it keeps.
type Assignments interface {
	Load(k AssignmentKey) partition.Assignment
	Store(k AssignmentKey, a partition.Assignment)
}

// assignment partitions mesh m over ranks with the named partitioner. The
// generator rounds the requested size, so this is where the node count is
// first known: a rank count it cannot hold is the request's error, not the
// partitioners' panic.
func assignment(m *mesh.FV3D, partitioner string, ranks int) (partition.Assignment, error) {
	if ranks < 1 || ranks > m.NNodes {
		return nil, sizeErrorf("ranks %d outside [1, %d], the node count of the generated mesh", ranks, m.NNodes)
	}
	switch partitioner {
	case "kway":
		return partition.KWay(m.NodeAdjacency(), ranks), nil
	case "rib":
		return partition.RIB(m.Coords, 3, ranks), nil
	case "rcb":
		return partition.RCB(m.Coords, 3, ranks), nil
	case "block":
		return partition.Block(m.NNodes, ranks), nil
	}
	return nil, fmt.Errorf("unknown partitioner %q", partitioner)
}

// IterNote renders the checkpoint note marking n completed iterations; it
// is what Drive writes and Build reads back, so a snapshot taken through
// one front-end resumes under another.
func IterNote(n int) string { return fmt.Sprintf("iter=%d", n) }

// ParseIterNote decodes an IterNote.
func ParseIterNote(note string) (int, error) {
	var n int
	if _, err := fmt.Sscanf(note, "iter=%d", &n); err != nil {
		return 0, fmt.Errorf("checkpoint note %q is not an iteration marker: %w", note, err)
	}
	return n, nil
}

// Problem is what the attempts of a run description share and never modify:
// the mesh, the multigrid hierarchy (mgcfd only) and the partition
// assignment (nil under seq). Its owner builds one per run — the service per
// job, the command line per invocation, the harness per paper point for the
// point's OP2 and CA backends — and every attempt, restarts included, is
// built on it. An ablation whose partition no Spec names copies the Problem
// and replaces Assign.
type Problem struct {
	Mesh      *mesh.FV3D
	Hierarchy *mesh.Hierarchy
	Assign    partition.Assignment
	// AssignStored reports that Assign was taken from the run's Assignments,
	// not computed: the one thing two builds of equal descriptions can differ
	// in, and only in what they cost.
	AssignStored bool
}

// NewProblem builds the mesh, hierarchy and partition r describes. Assign is
// the Problem's own slice wherever it came from.
func (r *Run) NewProblem() (*Problem, error) {
	p := &Problem{Mesh: mesh.RotorForNodes(r.Spec.MeshNodes)}
	if r.Spec.App == "mgcfd" {
		p.Hierarchy = mesh.NewHierarchy(p.Mesh, r.Spec.Levels, true)
	}
	if r.Spec.Backend == "seq" {
		return p, nil
	}
	key := AssignmentKey{MeshNodes: r.Spec.MeshNodes, Partitioner: r.Spec.Partitioner, Ranks: r.Spec.Ranks}
	if r.Assignments != nil && key.Ranks <= p.Mesh.NNodes {
		// A rank count the mesh cannot hold is not looked up: it goes to
		// assignment's SizeError whatever is kept under its key.
		p.Assign = r.Assignments.Load(key)
		p.AssignStored = p.Assign != nil
	}
	if p.Assign == nil {
		var err error
		if p.Assign, err = assignment(p.Mesh, key.Partitioner, key.Ranks); err != nil {
			return nil, err
		}
		if r.Assignments != nil {
			r.Assignments.Store(key, p.Assign)
		}
	}
	return p, nil
}

// Attempt is one constructed run: an instance of the app over a Problem and
// the backend it executes on. B is the backend loops are issued to; CB is
// the same backend when it is distributed and nil under seq. Start is the
// number of iterations the restored snapshot had already completed (0 on a
// fresh run). The owner must Close it.
type Attempt struct {
	B     core.Backend
	CB    *cluster.Backend
	Start int
	// Describe is the one-line mesh summary a command-line run prints.
	Describe string

	run *Run
	p   *Problem
	// What the back-end must declare, how the main loop initialises and
	// steps, and the state the sequential-reference check compares.
	prog     *core.Program
	primary  *core.Set
	maxChain int
	init     func(core.Backend)
	step     func(core.Backend)
	residual func(core.Backend) float64 // nil for hydra
	state    []*core.Dat
	tol      float64
}

// instantiate constructs the app's sets, maps, dats and loop bodies over an
// already built mesh. The Dats are fresh, so a backend built on them starts
// from the initial state.
func (r *Run) instantiate(p *Problem) *Attempt {
	chained := r.Spec.Backend == "ca" || r.Demarcate
	m := p.Mesh
	if r.Spec.App == "mgcfd" {
		app := mgcfd.New(p.Hierarchy)
		syn := mgcfd.NewSynthetic(app)
		nchains := r.Spec.NChains
		return &Attempt{
			run: r, p: p, prog: app.Prog, primary: app.Primary, maxChain: 2 * max(nchains, 1),
			Describe: fmt.Sprintf("mesh: %d nodes, %d edges, %d multigrid levels", m.NNodes, m.NEdges, len(p.Hierarchy.Levels)),
			init:     app.Init,
			step: func(b core.Backend) {
				if nchains > 0 {
					syn.Run(b, nchains, chained)
				}
				app.Cycle(b)
			},
			residual: app.Residual,
			state:    []*core.Dat{app.Levels[0].Vars},
			tol:      1e-9,
		}
	}
	app := hydra.New(m)
	a := &Attempt{
		run: r, p: p, prog: app.Prog, primary: app.Nodes, maxChain: 6,
		Describe: fmt.Sprintf("mesh: %d nodes, %d edges, %d pedges, %d bnd, %d cbnd",
			m.NNodes, m.NEdges, m.NPedges, m.NBedges, m.NCbnd),
		init:  func(b core.Backend) { app.RunSetup(b, chained) },
		step:  func(b core.Backend) { app.RunIteration(b, chained) },
		state: []*core.Dat{app.Qp, app.Qo, app.Res},
		// The published extensions perturb boundary values slightly
		// (DESIGN.md 5b); safe mode must match to rounding.
		tol: 0.02,
	}
	if r.Spec.Safe {
		a.tol = 1e-9
	}
	return a
}

// BuildFrom constructs one attempt of the run over p, fresh or resumed: it
// is BuildOn plus — when st is given — the iteration its note (an IterNote,
// parsed before anything is built) says the snapshot had completed. The
// service, the command line and RunDirect build every attempt of a job with
// it, over the one Problem they hold for the job's life.
func (r *Run) BuildFrom(p *Problem, st *checkpoint.State) (*Attempt, error) {
	start := 0
	if st != nil {
		var err error
		if start, err = ParseIterNote(st.Note); err != nil {
			return nil, err
		}
	}
	a, err := r.BuildOn(p, st)
	if err != nil {
		return nil, err
	}
	a.Start = start
	return a, nil
}

// BuildOn constructs one attempt over p: a fresh instance of the app and the
// backend — fresh when st is nil, restored from the snapshot otherwise. The
// cluster configuration embeds the instance's freshly constructed Dats, so
// app and backend are rebuilt per attempt; a restored attempt overwrites the
// initial state with the snapshot's. The snapshot's note is the caller's:
// BuildFrom reads an IterNote from it, the harness its own resume point.
func (r *Run) BuildOn(p *Problem, st *checkpoint.State) (*Attempt, error) {
	a := r.instantiate(p)
	if r.Spec.Backend == "seq" {
		a.B = core.NewSeq()
		return a, nil
	}
	var err error
	if a.CB, err = r.Open(p, a.prog, a.primary, a.maxChain, st); err != nil {
		return nil, err
	}
	a.B = a.CB
	return a, nil
}

// Open is the backend-opening half of BuildOn: it assembles the cluster
// configuration r describes around a program instantiated over p — prog,
// partitioned on primary, demarcating chains of at most maxChain loops — and
// opens the backend, fresh or from st. BuildOn calls it with the app the
// Spec names; the harness's chain-only ablations call it with the instance
// they step themselves.
func (r *Run) Open(p *Problem, prog *core.Program, primary *core.Set, maxChain int,
	st *checkpoint.State) (*cluster.Backend, error) {
	cfg := cluster.Config{
		Prog: prog, Primary: primary, Assign: p.Assign, NParts: r.Spec.Ranks,
		Depth: r.Depth, MaxChainLen: maxChain, CA: r.Spec.Backend == "ca",
		Chains: r.Chains, Machine: r.Machine, Parallel: r.Parallel, Tracer: r.Tracer,
		Faults: r.Plan, AutoTune: r.Spec.AutoTune, Overlap: r.Spec.Overlap,
		NoGroupedMsgs: r.NoGroupedMsgs, GPUDirect: r.GPUDirect, Slabs: r.Slabs,
	}
	if st == nil {
		return cluster.New(cfg)
	}
	return cluster.RestoreState(st, cfg)
}

// Init runs the app's initialisation on the attempt's backend (what Drive
// does first on a fresh run).
func (a *Attempt) Init() { a.init(a.B) }

// Step runs one main-loop iteration.
func (a *Attempt) Step() { a.step(a.B) }

// Close closes the backend: its worker pool stops and what it borrowed goes
// back. Read the Outcome first.
func (a *Attempt) Close() {
	if a.CB != nil {
		a.CB.Close()
	}
}

// Drive runs the main loop from a.Start to the spec's iteration count:
// initialise on a fresh run, step, and write a ring generation — noted with
// the completed-iteration count a resume parses back — whenever the cadence
// says so. ring must be nil under seq and may be nil anywhere. Failures the
// executor detects surface as its typed panics. A generation commits behind
// the iteration that follows it (see checkpoint.Ring), so whichever way the
// loop ends — done, a ring error, a typed panic — the ring is flushed on the
// way out: whoever looks at it next (a supervised restart, a preempted job's
// next attempt, the crash report) finds every generation written so far, and
// a commit that failed fails the attempt.
func (a *Attempt) Drive(ring *checkpoint.Ring) (err error) {
	if ring != nil {
		defer func() {
			if ferr := ring.Flush(); err == nil {
				err = ferr
			}
		}()
	}
	if a.Start == 0 {
		a.Init()
	}
	every := a.run.Spec.CheckpointEvery
	for it := a.Start; it < a.run.Spec.Iters; it++ {
		a.Step()
		if ring != nil && every > 0 && (it+1)%every == 0 {
			note := IterNote(it + 1)
			if _, err := ring.Write(func(w io.Writer) error { return a.CB.Checkpoint(w, note) }); err != nil {
				return err
			}
		}
	}
	return nil
}

// Outcome is what a completed attempt leaves behind. Checksum, Residual and
// MaxClock are the determinism-bearing oracle fields: bitwise equal for one
// Spec through every front-end, however many restarts the run survived.
type Outcome struct {
	Checksum  string
	Residual  float64 // mgcfd only
	MaxClock  float64
	Exchanges uint64
	Stats     *cluster.Stats
}

// Outcome reads the attempt's results. The residual is itself a parallel
// loop on the backend, so call this once, after Drive.
func (a *Attempt) Outcome() Outcome {
	var out Outcome
	if a.residual != nil {
		out.Residual = a.residual(a.B)
	}
	if a.CB != nil {
		out.Checksum = a.CB.ChecksumDats()
		out.MaxClock = a.CB.MaxClock()
		out.Exchanges = a.CB.ExchangeSeq()
		out.Stats = a.CB.Stats()
	}
	return out
}

// Execute runs one whole attempt over p: build from st, adopt the backend
// into sup (arming crash clauses and the watchdog; nil when unsupervised),
// show the live attempt to attach (may be nil) so the owner can describe,
// cancel or preempt it, and drive the main loop. p is the caller's, built
// once (NewProblem) and handed to every attempt of the run, so a restart
// regenerates no mesh, hierarchy or partition. On success the caller owns the
// returned Attempt; on any failure — a returned error or one of the
// executor's typed panics — the backend is closed on the way out.
func (r *Run) Execute(p *Problem, st *checkpoint.State, sup *supervise.Supervisor, ring *checkpoint.Ring,
	attach func(*Attempt)) (*Attempt, error) {
	a, err := r.BuildFrom(p, st)
	if err != nil {
		return nil, err
	}
	done := false
	defer func() {
		if !done {
			a.Close()
		}
	}()
	sup.Adopt(a.CB)
	if attach != nil {
		attach(a)
	}
	if err := a.Drive(ring); err != nil {
		return nil, err
	}
	done = true
	return a, nil
}

// VerifyAgainstSeq reruns the identical program on the sequential reference
// and returns the worst relative difference of the app's primary state
// against this attempt's, with the tolerance the app allows.
func (a *Attempt) VerifyAgainstSeq() (worst, tol float64) {
	ref := a.run.instantiate(a.p)
	ref.B = core.NewSeq()
	if err := ref.Drive(nil); err != nil {
		panic(err) // unreachable: only ring writes fail, and there is no ring
	}
	for i, d := range a.state {
		got, want := a.CB.GatherDat(d), ref.state[i].Data
		for j := range want {
			worst = max(worst, math.Abs(got[j]-want[j])/(math.Abs(want[j])+1e-30))
		}
	}
	return worst, a.tol
}

// Explain prints the inspection plan of each of hydra's chains under the
// run's chain configuration.
func (r *Run) Explain(w io.Writer) error {
	if r.Spec.App != "hydra" {
		return fmt.Errorf("explain is hydra-only")
	}
	app := hydra.New(mesh.RotorForNodes(r.Spec.MeshNodes))
	for _, name := range hydra.ChainNames() {
		loops := app.ChainLoops(name)
		var over []int
		if cc := r.Chains.Get(name); cc != nil {
			var err error
			if over, err = cc.HEOverrides(len(loops)); err != nil {
				return err
			}
		}
		plan, err := ca.Inspect(name, loops, over)
		if err != nil {
			fmt.Fprintf(w, "chain %s: %v\n", name, err)
			continue
		}
		fmt.Fprint(w, plan.Describe(loops))
	}
	return nil
}
