package service

import (
	"os"
	"path/filepath"

	"op2ca/internal/checkpoint"
	"op2ca/internal/runspec"
	"op2ca/internal/supervise"
)

// runAttempt executes one attempt of the job's run description (see
// runspec.Run.Execute) from st under sup, handing the live attempt to
// attach (may be nil) so the owner can cancel or preempt it, and reads the
// outcome. The first attempt builds the job's Problem; restarts reuse it.
// The executor's typed panics come back as errors.
func (w *workload) runAttempt(st *checkpoint.State, sup *supervise.Supervisor,
	ring *checkpoint.Ring, attach func(*runspec.Attempt)) (out runspec.Outcome, err error) {
	err = supervise.Catch(func() error {
		if w.problem == nil {
			var err error
			if w.problem, err = w.run.NewProblem(); err != nil {
				return err
			}
		}
		a, err := w.run.Execute(w.problem, st, sup, ring, attach)
		if err != nil {
			return err
		}
		defer a.Close()
		out = a.Outcome()
		return nil
	})
	return out, err
}

// RunDirect validates and executes spec inline, exactly as a worker
// would but without queueing, placement or preemption: one supervisor,
// one ring, attempts until success or a final error (supervise.Runner).
// It is the service's CLI-parity oracle — a job served through the full
// HTTP path must produce a Result whose checksum, residual and
// max_clock_seconds are bitwise identical to RunDirect of the same spec.
//
// dir holds the checkpoint ring; "" uses a temporary directory removed
// on return.
func RunDirect(spec JobSpec, dir string) (*Result, error) {
	w, err := spec.Validate()
	if err != nil {
		return nil, &ValidationError{Err: err}
	}
	if dir == "" {
		if dir, err = os.MkdirTemp("", "op2ca-direct-*"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	ring, err := checkpoint.NewRing(checkpoint.Spec{
		Every: w.spec.CheckpointEvery, Path: filepath.Join(dir, "direct.ck"), Keep: defaultKeep,
	})
	if err != nil {
		return nil, err
	}
	var out runspec.Outcome
	runner := &supervise.Runner{
		Spec: w.run.Supervise, Plan: w.run.Plan, Ring: ring,
		Body: func(st *checkpoint.State, sup *supervise.Supervisor) (err error) {
			out, err = w.runAttempt(st, sup, ring, nil)
			return err
		},
	}
	sup, err := runner.Run()
	if err != nil {
		return nil, err
	}
	sup.Finish(out.Stats)
	return newResult("direct", w, out, sup, sup.Stats().Attempts, 0, nil), nil
}
