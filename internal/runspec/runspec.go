// Package runspec is the one description of an application run and the one
// driver that executes it. A Spec names the app (MG-CFD with synthetic
// chains, or the Hydra proxy with the Section 3.4 chain configuration), its
// size, the back-end and every result-bearing knob; Resolve parses the
// embedded spec grammars and derives the halo depth; NewProblem builds what
// attempts share (mesh, multigrid hierarchy, partition, and for a distributed
// run the declared app); BuildOn constructs one attempt over a Problem (the
// app's loop bodies, cluster configuration, backend — fresh or from a
// snapshot) and BuildFrom also reads the resume iteration from the snapshot's
// note; Drive iterates it, writing a checkpoint-ring generation at the
// cadence; VerifyAgainstSeq replays it on the sequential reference.
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
	"sync"

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
// in before Resolve. The JSON names are the job service's wire form
// (service.JobSpec is this struct).
type Spec struct {
	// Tenant is who the run is for: the job service's admission and
	// accounting key. Resolve ignores it and no result depends on it.
	Tenant string `json:"tenant"`
	// App is "mgcfd" or "hydra".
	App string `json:"app"`
	// MeshNodes is the approximate node count of the synthetic rotor mesh
	// (finest level for mgcfd).
	MeshNodes int `json:"mesh_nodes,omitempty"`
	// Levels (multigrid depth) and NChains (synthetic chain pairs per
	// iteration, 0 disables) are mgcfd-only.
	Levels  int `json:"levels,omitempty"`
	NChains int `json:"nchains,omitempty"`
	// Ranks is the simulated MPI rank count; ignored by the seq backend.
	Ranks int `json:"ranks,omitempty"`
	// Backend is "seq" (the sequential reference), "op2" or "ca".
	Backend string `json:"backend,omitempty"`
	// Overlap runs CA chains with overlapped exchanges (cluster.Config.Overlap).
	Overlap bool `json:"overlap,omitempty"`
	// AutoTune lets the model-driven autotuner pick each chain's policy.
	AutoTune bool `json:"autotune,omitempty"`
	// Safe (hydra only) drops the configured halo extensions and lets the
	// inspector's conservative analysis choose.
	Safe bool `json:"safe,omitempty"`
	// Iters is the main-loop iteration count.
	Iters int `json:"iters,omitempty"`
	// Machine is archer2, cirrus or laptop.
	Machine string `json:"machine,omitempty"`
	// Partitioner is kway, rib, rcb or block; "" picks the app's default
	// (kway for mgcfd, rib for hydra).
	Partitioner string `json:"partitioner,omitempty"`
	// Chains (hydra only) is the text of a chaincfg file replacing the
	// built-in paper configuration.
	Chains string `json:"chains,omitempty"`
	// Faults is a fault-injection plan in the -faults grammar.
	Faults string `json:"faults,omitempty"`
	// Supervise is a -supervise spec; "" means unsupervised.
	Supervise string `json:"supervise,omitempty"`
	// CheckpointEvery is the ring snapshot cadence in iterations; 0 never
	// snapshots.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// Run is a resolved Spec: the normalised description plus every parsed
// artefact an attempt needs. Tracer, Parallel, Assignments, Slabs, Layouts and
// Instances are the host-side knobs a front-end may set before Build; none
// changes a result.
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
	// and takes it back on Close (cluster.Config.Slabs) — and, when the run
	// has no Layouts store, the halo layouts its Problem builds and their
	// exchange schedules, which Problem.Release gives back. Set by the
	// front-ends that build backend after backend: the job service (one
	// lender per Service) and the paper harness (one per registry); nil for
	// one that builds a few.
	Slabs cluster.SlabLender
	// Layouts, when set, is where Open looks for the halo layouts of a
	// backend whose Problem keeps none of its shape before building them, and
	// where it leaves ones it built (cluster.Config.Layouts), so the Problems
	// of many runs share them. The third of the service's stores; nil in every
	// other front-end, where each Problem builds its own, which its attempts
	// share all the same.
	Layouts Layouts
	// Instances, when set, is where NewProblem looks for the run's declared app
	// — mesh, hierarchy and program — before generating and declaring it, and
	// where it leaves one it declared, so the Problems of many runs share one
	// instance. Set by the front-ends that run many descriptions: the job
	// service (one store per Service) and the paper harness (one per
	// registry). Nil for one that runs a single description: there the
	// Problem declares its own, which its attempts share all the same.
	Instances Instances

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
// safe for concurrent use. What is kept is shared, not copied, both ways:
// Load may return a slice other runs hold too (nil when it has none under k),
// and Store may keep the slice it is handed. An assignment is read-only once
// computed, like everything a Problem holds.
type Assignments interface {
	Load(k AssignmentKey) partition.Assignment
	Store(k AssignmentKey, a partition.Assignment)
}

// LayoutKey holds everything a run's halo layouts are a function of: the
// mesh, partitioner and rank count (AssignmentKey: the mesh and its
// partition), the app and multigrid depth (the program's sets and maps, the
// hierarchy), the halo depth and the longest chain. Equal keys name
// byte-identical layouts, whichever backend — op2 or ca — builds them.
type LayoutKey struct {
	AssignmentKey
	App         string
	Levels      int
	Depth       int
	MaxChainLen int
}

// Layouts keeps the halo layouts of backends between runs. Both methods are
// safe for concurrent use. What is kept is shared, not copied: layouts are
// read-only once built (cluster.Layouts), and a backend handed ones built
// under another key refuses them (*cluster.LayoutsError).
type Layouts interface {
	Load(k LayoutKey) *cluster.Layouts
	Store(k LayoutKey, l *cluster.Layouts)
}

// InstanceKey holds the fields of a run description that determine what the
// app declares: the mesh generator's input, the app and its multigrid depth.
// Not the synthetic chain count, hydra's safe mode or chain file, the
// partitioner, ranks, backend or fault plan: they change how a declared
// program is partitioned, demarcated and stepped, never what it declares.
// Equal keys name byte-identical instances.
type InstanceKey struct {
	MeshNodes int
	App       string
	Levels    int
}

// Instance is a declared app: the mesh, the multigrid hierarchy (mgcfd only)
// and the program the app declares over them — sets, maps, and dats holding
// their initial values — with the app's handles on it. A distributed backend
// reads its program and never writes it (cluster.Config.Prog), so one
// Instance serves any number of attempts, concurrent ones included; the
// sequential reference writes the dats it runs on and always gets its own.
type Instance struct {
	Mesh      *mesh.FV3D
	Hierarchy *mesh.Hierarchy

	mg  *mgcfd.App // mgcfd, with its synthetic chain
	syn *mgcfd.Synthetic
	hy  *hydra.App // hydra
}

// MGCFD returns the declared MG-CFD app and its synthetic chain (nil for
// hydra), for a driver that steps them in a main loop no Spec describes.
func (in *Instance) MGCFD() (*mgcfd.App, *mgcfd.Synthetic) { return in.mg, in.syn }

// Instances keeps declared app instances between runs. Both methods are safe
// for concurrent use. What is kept is shared, not copied: an Instance is
// read-only once declared.
type Instances interface {
	Load(k InstanceKey) *Instance
	Store(k InstanceKey, in *Instance)
}

// assignmentKey is the key of the run's partition assignment.
func (r *Run) assignmentKey() AssignmentKey {
	return AssignmentKey{MeshNodes: r.Spec.MeshNodes, Partitioner: r.Spec.Partitioner, Ranks: r.Spec.Ranks}
}

// instanceKey is the key of the run's declared app.
func (r *Run) instanceKey() InstanceKey {
	return InstanceKey{MeshNodes: r.Spec.MeshNodes, App: r.Spec.App, Levels: r.Spec.Levels}
}

// newMesh generates the mesh r describes and, for mgcfd, its multigrid
// hierarchy.
func (r *Run) newMesh() (*mesh.FV3D, *mesh.Hierarchy) {
	m := mesh.RotorForNodes(r.Spec.MeshNodes)
	if r.Spec.App == "mgcfd" {
		return m, mesh.NewHierarchy(m, r.Spec.Levels, true)
	}
	return m, nil
}

// declare declares the app r names over m and h: fresh sets, maps and dats,
// the dats in their initial state.
func (r *Run) declare(m *mesh.FV3D, h *mesh.Hierarchy) *Instance {
	in := &Instance{Mesh: m, Hierarchy: h}
	if r.Spec.App == "mgcfd" {
		in.mg = mgcfd.New(h)
		in.syn = mgcfd.NewSynthetic(in.mg)
	} else {
		in.hy = hydra.New(m)
	}
	return in
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
		return partition.KWayEdges(m.NNodes, ranks, m.EdgeNodes, m.PedgeNodes), nil
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

// Problem is what the attempts of a run description share: the mesh, the
// multigrid hierarchy (mgcfd only), and under a distributed backend the
// partition assignment and the declared app (possibly other runs' too, through
// the run's Assignments and Instances; both nil under seq), all read-only once
// built, and the halo layouts its backends were built on, which Open adds to
// as it builds them and which are read-only too. Its owner builds one per run —
// the service per job, the command line per invocation, the harness per paper
// point for the point's OP2 and CA backends — and every attempt, restarts
// included, is built on it, so none builds layouts an earlier one built. An
// ablation whose partition no Spec names copies the Problem and replaces
// Assign: the layouts are kept by the assignment they were built on, so the
// copy builds its own again, and never gets the original's.
type Problem struct {
	Mesh      *mesh.FV3D
	Hierarchy *mesh.Hierarchy
	Assign    partition.Assignment
	// AssignStored reports that Assign was taken from the run's Assignments,
	// not computed: the one thing two builds of equal descriptions can differ
	// in, and only in what they cost.
	AssignStored bool
	// Instance is the declared app every distributed attempt on the Problem
	// shares — possibly another run's, taken from the run's Instances — and
	// Mesh and Hierarchy are its own.
	Instance *Instance

	// layouts are the halo layouts Open built the Problem's backends on.
	layouts *keptLayouts
}

// keptLayouts are a Problem's halo layouts, one per assignment and halo
// shape, shared with its copies. Open looks them up and builds under mu, so
// concurrent attempts on one Problem build each once.
type keptLayouts struct {
	mu   sync.Mutex
	kept []keptLayout
}

// keptLayout is one entry of keptLayouts: layouts and what they were built on
// besides the Problem's program — the assignment, by identity, the rank
// count, depth and chain length — and whether they borrowed their storage.
type keptLayout struct {
	assign                    partition.Assignment
	ranks, depth, maxChainLen int
	l                         *cluster.Layouts
	lent                      bool
}

// layouts returns the halo layouts a backend of cfg is built on: the ones p
// keeps for cfg's assignment and shape; else the ones the run's Layouts
// store keeps under its LayoutKey; else ones built here, and left in the
// store when the run has one. p keeps them either way. Layouts built for a
// run with a lender and no store borrow their storage (cluster.NewLayouts),
// which p's owner gives back with p.Release; stored ones live as long as
// the store keeps them, so they are made.
func (r *Run) layouts(p *Problem, cfg cluster.Config) (*cluster.Layouts, error) {
	kl := p.layouts
	kl.mu.Lock()
	defer kl.mu.Unlock()
	k := keptLayout{assign: cfg.Assign, ranks: cfg.NParts, depth: cfg.Depth, maxChainLen: cfg.MaxChainLen}
	for _, e := range kl.kept {
		if sameAssignment(e.assign, k.assign) && e.ranks == k.ranks && e.depth == k.depth && e.maxChainLen == k.maxChainLen {
			return e.l, nil
		}
	}
	key := LayoutKey{AssignmentKey: r.assignmentKey(), App: r.Spec.App, Levels: r.Spec.Levels,
		Depth: cfg.Depth, MaxChainLen: cfg.MaxChainLen}
	if r.Layouts != nil {
		k.l = r.Layouts.Load(key)
	}
	if k.l == nil {
		k.lent = r.Layouts == nil && cfg.Slabs != nil
		if !k.lent {
			cfg.Slabs = nil
		}
		var err error
		if k.l, err = cluster.NewLayouts(cfg); err != nil {
			return nil, err
		}
		if r.Layouts != nil {
			r.Layouts.Store(key, k.l)
		}
	}
	kl.kept = append(kl.kept, k)
	return k.l, nil
}

// Release gives back the storage of the halo layouts p's backends borrowed —
// a run with a lender and no Layouts store lends it (see Run.Slabs) — once
// every backend built on p is closed: with one still open it panics with a
// *cluster.ReleaseError. p then keeps no layouts, and a later backend on it
// builds them again. Calling it again, or on a Problem that borrowed nothing,
// does nothing.
func (p *Problem) Release() {
	kl := p.layouts
	kl.mu.Lock()
	defer kl.mu.Unlock()
	for n := len(kl.kept); n > 0; n = len(kl.kept) {
		if k := kl.kept[n-1]; k.lent {
			k.l.Release()
		}
		kl.kept[n-1] = keptLayout{}
		kl.kept = kl.kept[:n-1]
	}
}

// sameAssignment reports whether a and b are one slice: an assignment is
// read-only once computed, so the same slice is the same partition.
func sameAssignment(a, b partition.Assignment) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// NewProblem builds the mesh and hierarchy r describes and, under a
// distributed backend, the declared app over them and the partition: the
// instance taken from the run's Instances, or declared and left there, and
// the partition likewise through its Assignments.
func (r *Run) NewProblem() (*Problem, error) {
	p := &Problem{layouts: new(keptLayouts)}
	if r.Spec.Backend == "seq" {
		p.Mesh, p.Hierarchy = r.newMesh()
		return p, nil
	}
	ikey := r.instanceKey()
	if r.Instances != nil {
		p.Instance = r.Instances.Load(ikey)
	}
	if p.Instance == nil {
		p.Instance = r.declare(r.newMesh())
		if r.Instances != nil {
			r.Instances.Store(ikey, p.Instance)
		}
	}
	p.Mesh, p.Hierarchy = p.Instance.Mesh, p.Instance.Hierarchy
	key := r.assignmentKey()
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

// attempt wraps the declared app in in the loop bodies one attempt over p
// initialises and steps it with. A backend built on the instance starts from
// its dats' initial state.
func (r *Run) attempt(p *Problem, in *Instance) *Attempt {
	chained := r.Spec.Backend == "ca" || r.Demarcate
	m := p.Mesh
	if app := in.mg; app != nil {
		syn := in.syn
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
	app := in.hy
	a := &Attempt{
		run: r, p: p, prog: app.Prog, primary: app.Nodes, maxChain: 6,
		Describe: fmt.Sprintf("mesh: %d nodes, %d edges, %d pedges, %d bnd, %d cbnd",
			m.NNodes, m.NEdges, m.NPedges, m.NBedges, m.NCbnd),
		init:  func(b core.Backend) { app.RunSetup(b, chained) },
		step:  func(b core.Backend) { app.RunIteration(b, chained) },
		state: []*core.Dat{app.Qp, app.Qo, app.Res},
		// The published extensions perturb boundary values slightly
		// (DESIGN §5b.3); safe mode must match to rounding.
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

// BuildOn constructs one attempt over p: the app — the Problem's declared
// instance, or under seq, which writes the dats, a fresh one — and the
// backend, fresh when st is nil, restored from the snapshot otherwise. The
// backend copies the dats' initial state out of the instance and never writes
// back, so a restored attempt overwrites its copy with the snapshot's. The
// snapshot's note is the caller's: BuildFrom reads an IterNote from it, the
// harness its own resume point.
func (r *Run) BuildOn(p *Problem, st *checkpoint.State) (*Attempt, error) {
	if r.Spec.Backend == "seq" {
		a := r.attempt(p, r.declare(p.Mesh, p.Hierarchy))
		a.B = core.NewSeq()
		return a, nil
	}
	a := r.attempt(p, p.Instance)
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
// they step themselves. prog must be p's declared program. The backend is
// built on the layouts p keeps for the run's depth and maxChain, or on ones
// taken from the run's Layouts store or built here, which p then keeps.
func (r *Run) Open(p *Problem, prog *core.Program, primary *core.Set, maxChain int,
	st *checkpoint.State) (*cluster.Backend, error) {
	cfg := cluster.Config{
		Prog: prog, Primary: primary, Assign: p.Assign, NParts: r.Spec.Ranks,
		Depth: r.Depth, MaxChainLen: maxChain, CA: r.Spec.Backend == "ca",
		Chains: r.Chains, Machine: r.Machine, Parallel: r.Parallel, Tracer: r.Tracer,
		Faults: r.Plan, AutoTune: r.Spec.AutoTune, Overlap: r.Spec.Overlap,
		NoGroupedMsgs: r.NoGroupedMsgs, GPUDirect: r.GPUDirect, Slabs: r.Slabs,
	}
	var err error
	if cfg.Layouts, err = r.layouts(p, cfg); err != nil {
		return nil, err
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

// VerifyAgainstSeq reruns the identical program, freshly declared, on the
// sequential reference and returns the worst relative difference of the app's
// primary state against this attempt's, with the tolerance the app allows.
func (a *Attempt) VerifyAgainstSeq() (worst, tol float64) {
	ref := a.run.attempt(a.p, a.run.declare(a.p.Mesh, a.p.Hierarchy))
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
