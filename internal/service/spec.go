package service

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"regexp"

	"op2ca/internal/runspec"
)

// JobSpec is the wire form of a job submission: a run description
// (runspec.Spec, whose JSON names are the wire names) and the tenant it is
// for. It is a defined type over runspec.Spec, not a copy of its fields: a
// knob is declared once, and Validate serves it or refuses it by name.
type JobSpec runspec.Spec

// DecodeJobSpec reads one JSON job spec from r. A field the wire does not
// name, or anything after the first JSON value, is an error.
func DecodeJobSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, fmt.Errorf("decoding job spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return JobSpec{}, errors.New("decoding job spec: data after the first JSON value")
	}
	return spec, nil
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
// worker drives and, from the first attempt on, the mesh, hierarchy,
// partition and declared app every attempt of the job is built on. run and
// problem belong to whoever is running an attempt (one at a time, handed over
// under the service lock).
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
//
// The service's defaults, for a field left zero: mesh_nodes 2000, ranks 4,
// backend "ca", iters 5, checkpoint_every 1, machine "archer2", supervise
// "on" (every served job is supervised: the supervisor's ring is also what
// makes it preemptible), and for mgcfd levels 2; the partitioner is the
// app's (Resolve's: kway for mgcfd, rib for hydra). nchains has no default:
// an mgcfd job without it runs no synthetic chains. The echo in views and
// results carries the filled-in values, the partitioner and the normalised
// supervise spec. autotune and safe are not served and are refused by name.
func (s JobSpec) Validate() (*workload, error) {
	if !tenantRE.MatchString(s.Tenant) {
		return nil, fmt.Errorf("tenant %q: need 1-64 chars of [a-zA-Z0-9._-] starting alphanumeric", s.Tenant)
	}
	if s.AutoTune {
		return nil, errors.New("autotune: not served")
	}
	if s.Safe {
		return nil, errors.New("safe: not served")
	}
	s.MeshNodes = cmp.Or(s.MeshNodes, 2000)
	s.Ranks = cmp.Or(s.Ranks, 4)
	s.Backend = cmp.Or(s.Backend, "ca")
	s.Iters = cmp.Or(s.Iters, 5)
	s.CheckpointEvery = cmp.Or(s.CheckpointEvery, 1)
	s.Machine = cmp.Or(s.Machine, "archer2")
	s.Supervise = cmp.Or(s.Supervise, "on")
	if s.Backend != "op2" && s.Backend != "ca" {
		return nil, fmt.Errorf("backend %q: want op2 or ca", s.Backend)
	}
	if s.MeshNodes < 60 || s.MeshNodes > MaxMeshNodes {
		return nil, fmt.Errorf("mesh_nodes %d outside [60, %d]", s.MeshNodes, MaxMeshNodes)
	}
	if s.Ranks < 2 || s.Ranks > MaxRanks {
		return nil, fmt.Errorf("ranks %d outside [2, %d]", s.Ranks, MaxRanks)
	}
	if s.Ranks > s.MeshNodes {
		// The generator may still round the mesh below the rank count; the
		// worker reports that as a failed job (runspec.Run.NewProblem).
		return nil, fmt.Errorf("ranks %d exceed mesh_nodes %d: every rank needs a node", s.Ranks, s.MeshNodes)
	}
	if s.Iters < 1 || s.Iters > MaxIters {
		return nil, fmt.Errorf("iters %d outside [1, %d]", s.Iters, MaxIters)
	}
	if s.CheckpointEvery < 1 || s.CheckpointEvery > MaxCkptEvery {
		return nil, fmt.Errorf("checkpoint_every %d outside [1, %d]", s.CheckpointEvery, MaxCkptEvery)
	}
	if s.App == "mgcfd" {
		s.Levels = cmp.Or(s.Levels, 2)
		if s.Levels < 1 || s.Levels > MaxLevels {
			return nil, fmt.Errorf("levels %d outside [1, %d]", s.Levels, MaxLevels)
		}
		if s.NChains < 0 || s.NChains > MaxNChains {
			return nil, fmt.Errorf("nchains %d outside [0, %d]", s.NChains, MaxNChains)
		}
	}
	run, err := runspec.Spec(s).Resolve()
	if err != nil {
		return nil, err
	}
	if !run.Supervise.Enabled {
		return nil, fmt.Errorf("supervise %q parsed to disabled; served jobs must be supervised", s.Supervise)
	}
	s = JobSpec(run.Spec)
	s.Supervise = run.Supervise.String()
	return &workload{spec: s, run: run}, nil
}
