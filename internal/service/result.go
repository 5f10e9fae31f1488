package service

import (
	"op2ca/internal/cluster"
	"op2ca/internal/runspec"
	"op2ca/internal/supervise"
)

// Result is a finished job's committed record, in the op2ca-bench
// snapshot idiom: the resolved spec, the determinism-bearing outputs
// (checksum, residual, virtual clock, exchange count), and the fault and
// supervision ledgers. Checksum, residual and max_clock_seconds are the
// oracle fields — for a given spec they are bitwise identical however
// many preemptions, migrations and supervised restarts the job survived,
// and identical to a direct (unserved) run of the same spec.
type Result struct {
	JobID  string  `json:"job_id"`
	Tenant string  `json:"tenant"`
	Spec   JobSpec `json:"spec"`

	Checksum        string  `json:"checksum"`
	Residual        float64 `json:"residual,omitempty"` // mgcfd only
	MaxClockSeconds float64 `json:"max_clock_seconds"`
	Exchanges       uint64  `json:"exchanges"`

	FaultSpec string                  `json:"fault_spec,omitempty"`
	Faults    *cluster.FaultStats     `json:"faults,omitempty"`
	Supervise *cluster.SuperviseStats `json:"supervise,omitempty"`

	// Attempts counts attempt starts (preemptions and supervised
	// restarts included); Workers lists every worker that started one,
	// in order — a preempted or crash-restarted job shows at least two
	// distinct names here.
	Attempts    int      `json:"attempts"`
	Preemptions int      `json:"preemptions"`
	Restarts    int      `json:"restarts"`
	Workers     []string `json:"workers,omitempty"`
}

// newResult flattens a successful final attempt into the wire record.
// Call after sup.Finish so the supervise ledger includes ring
// write-verification quarantines.
func newResult(id string, w *workload, out runspec.Outcome, sup *supervise.Supervisor,
	attempts, preemptions int, workers []string) *Result {
	r := &Result{
		JobID: id, Tenant: w.spec.Tenant, Spec: w.spec,
		Checksum: out.Checksum, Residual: out.Residual,
		MaxClockSeconds: out.MaxClock, Exchanges: out.Exchanges,
		Attempts: attempts, Preemptions: preemptions,
		Restarts: sup.Restarts(), Workers: workers,
	}
	if plan := w.run.Plan; plan != nil {
		ft := out.Stats.Faults
		r.FaultSpec, r.Faults = plan.String(), &ft
	}
	sv := sup.Stats()
	r.Supervise = &sv
	return r
}
