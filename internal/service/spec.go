package service

import (
	"fmt"
	"regexp"

	"op2ca/internal/runspec"
)

// JobSpec is the wire form of a job submission: which mini-app to run, how
// big, on how many simulated ranks, under which fault/supervision regime.
// The zero value of every optional field means "use the service default";
// Validate fills the defaults in, so the spec echoed back in views and
// results is fully resolved.
type JobSpec struct {
	// Tenant namespaces the job for admission control and accounting.
	// Required; a short token of letters, digits, '.', '_' and '-'.
	Tenant string `json:"tenant"`
	// App selects the workload: "mgcfd" (multigrid Euler solver with
	// optional synthetic loop-chains) or "hydra" (the paper's six
	// published loop-chains in an RK5 skeleton). Required.
	App string `json:"app"`
	// MeshNodes is the approximate node count of the synthetic rotor
	// mesh (finest level for mgcfd). Default 2000.
	MeshNodes int `json:"mesh_nodes,omitempty"`
	// Levels is the mgcfd multigrid depth (default 2). mgcfd only.
	Levels int `json:"levels,omitempty"`
	// NChains is the number of synthetic chain pairs mgcfd interleaves
	// per iteration (default 2; 0 disables). mgcfd only.
	NChains int `json:"nchains,omitempty"`
	// Ranks is the simulated MPI rank count. Default 4.
	Ranks int `json:"ranks,omitempty"`
	// Backend is "op2" or "ca" (default "ca"). The sequential reference
	// is not served: it has no virtual clock and nothing to checkpoint.
	Backend string `json:"backend,omitempty"`
	// Overlap runs the job's CA chains with overlapped exchanges (see
	// cluster.Config.Overlap). Results stay bitwise identical to the
	// bulk-synchronous run; only virtual time moves.
	Overlap bool `json:"overlap,omitempty"`
	// Iters is the main-loop iteration count. Default 5.
	Iters int `json:"iters,omitempty"`
	// Machine is the performance model: archer2, cirrus or laptop
	// (default archer2, matching the CLI defaults).
	Machine string `json:"machine,omitempty"`
	// Partitioner is kway, rib, rcb or block (default kway for mgcfd,
	// rib for hydra, matching the CLI defaults).
	Partitioner string `json:"partitioner,omitempty"`
	// Chains is an inline chaincfg file overriding hydra's built-in
	// paper configuration. hydra only.
	Chains string `json:"chains,omitempty"`
	// Faults is a fault-injection plan in the -faults grammar, crash
	// clauses included (chaos testing of the service rides on these).
	Faults string `json:"faults,omitempty"`
	// Supervise is a -supervise spec. Empty enables supervision with
	// defaults: every served job is supervised, because the supervisor's
	// ring is also what makes it preemptible.
	Supervise string `json:"supervise,omitempty"`
	// CheckpointEvery is the ring snapshot cadence in iterations
	// (default 1). Denser rings make preemption cheaper.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// Admission bounds. They cap what one job may ask of a worker, not what
// the grammar can express: a served job shares its worker pool.
const (
	MaxMeshNodes = 200_000
	MaxRanks     = 64
	MaxIters     = 500
	MaxLevels    = 6
	MaxNChains   = 64
	MaxCkptEvery = 500
)

var tenantRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// workload is a validated job: the normalized spec as echoed in views and
// results, and — until the job settles — the resolved run description the
// worker drives and, from the first attempt on, the mesh, hierarchy and
// partition every attempt of the job is built on. run and problem belong to
// whoever is running an attempt (one at a time, handed over under the service
// lock).
type workload struct {
	spec    JobSpec
	run     *runspec.Run
	problem *runspec.Problem
}

// Validate checks spec against the admission bounds, fills the service's
// defaults, and resolves the run it describes (runspec.Spec.Resolve owns
// the grammar: names, app-specific fields, the embedded chaincfg, faults
// and supervise specs). Every error it returns maps to HTTP 400: nothing
// here inspects service state.
func (s JobSpec) Validate() (*workload, error) {
	if !tenantRE.MatchString(s.Tenant) {
		return nil, fmt.Errorf("tenant %q: need 1-64 chars of [a-zA-Z0-9._-] starting alphanumeric", s.Tenant)
	}
	if s.Backend == "" {
		s.Backend = "ca"
	}
	if s.Backend != "op2" && s.Backend != "ca" {
		return nil, fmt.Errorf("backend %q: want op2 or ca", s.Backend)
	}
	if s.MeshNodes == 0 {
		s.MeshNodes = 2000
	}
	if s.MeshNodes < 60 || s.MeshNodes > MaxMeshNodes {
		return nil, fmt.Errorf("mesh_nodes %d outside [60, %d]", s.MeshNodes, MaxMeshNodes)
	}
	if s.Ranks == 0 {
		s.Ranks = 4
	}
	if s.Ranks < 2 || s.Ranks > MaxRanks {
		return nil, fmt.Errorf("ranks %d outside [2, %d]", s.Ranks, MaxRanks)
	}
	if s.Ranks > s.MeshNodes {
		// The generator may still round the mesh below the rank count; the
		// worker reports that as a failed job (runspec.Run.NewProblem).
		return nil, fmt.Errorf("ranks %d exceed mesh_nodes %d: every rank needs a node", s.Ranks, s.MeshNodes)
	}
	if s.Iters == 0 {
		s.Iters = 5
	}
	if s.Iters < 1 || s.Iters > MaxIters {
		return nil, fmt.Errorf("iters %d outside [1, %d]", s.Iters, MaxIters)
	}
	if s.CheckpointEvery == 0 {
		s.CheckpointEvery = 1
	}
	if s.CheckpointEvery < 1 || s.CheckpointEvery > MaxCkptEvery {
		return nil, fmt.Errorf("checkpoint_every %d outside [1, %d]", s.CheckpointEvery, MaxCkptEvery)
	}
	if s.App == "mgcfd" {
		if s.Levels == 0 {
			s.Levels = 2
		}
		if s.Levels < 1 || s.Levels > MaxLevels {
			return nil, fmt.Errorf("levels %d outside [1, %d]", s.Levels, MaxLevels)
		}
		if s.NChains < 0 || s.NChains > MaxNChains {
			return nil, fmt.Errorf("nchains %d outside [0, %d]", s.NChains, MaxNChains)
		}
	}
	if s.Machine == "" {
		s.Machine = "archer2"
	}
	if s.Supervise == "" {
		s.Supervise = "on"
	}
	run, err := runspec.Spec{
		App: s.App, MeshNodes: s.MeshNodes, Levels: s.Levels, NChains: s.NChains,
		Ranks: s.Ranks, Backend: s.Backend, Overlap: s.Overlap, Iters: s.Iters,
		Machine: s.Machine, Partitioner: s.Partitioner, Chains: s.Chains,
		Faults: s.Faults, Supervise: s.Supervise, CheckpointEvery: s.CheckpointEvery,
	}.Resolve()
	if err != nil {
		return nil, err
	}
	if !run.Supervise.Enabled {
		return nil, fmt.Errorf("supervise %q parsed to disabled; served jobs must be supervised", s.Supervise)
	}
	s.Partitioner = run.Spec.Partitioner
	s.Supervise = run.Supervise.String()
	return &workload{spec: s, run: run}, nil
}
