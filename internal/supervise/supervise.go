// Package supervise is the self-healing execution layer: a supervisor that
// drives a run, catches typed failure panics from the simulated runtime
// (injected crash faults, exchange integrity violations after retry
// give-up, no-progress watchdog trips), restores from the newest valid
// generation of a verified checkpoint ring and resumes — under a bounded
// restart budget with exponential backoff charged in virtual time.
//
// The supervisor never touches the simulated clocks: restart backoff
// accumulates on a separate SuperviseStats ledger, and the runtime's
// canonical-order execution makes the recovered run's checksums, clocks and
// stats bitwise identical to the uninterrupted run — the oracle the package
// tests pin.
package supervise

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strconv"
	"strings"

	"op2ca/internal/checkpoint"
	"op2ca/internal/cluster"
	"op2ca/internal/faults"
	"op2ca/internal/obs"
)

// Spec is the parsed form of the -supervise command-line flag:
// "on[,budget=N][,backoff=T][,watchdog=T]".
type Spec struct {
	// Enabled reports whether supervision was requested at all; the zero
	// Spec is disabled.
	Enabled bool
	// Budget is the maximum number of supervised restarts before the run
	// fails with a *BudgetError (0 = the first failure is fatal).
	Budget int
	// Backoff is the base of the exponential restart backoff in virtual
	// seconds: restart k charges Backoff * 2^(k-1) to the supervise
	// ledger (never to rank clocks).
	Backoff float64
	// Watchdog is the no-progress deadline in virtual seconds handed to
	// Backend.SetWatchdog (0 = off). Each watchdog trip doubles the
	// effective deadline for the next attempt, so deterministic
	// re-execution of a slow-but-progressing run eventually passes.
	Watchdog float64
}

// Defaults for an enabled spec that does not override them.
const (
	DefaultBudget  = 8
	DefaultBackoff = 1.0
)

// ParseSpec parses the -supervise flag value. "" is a disabled spec; "on"
// enables supervision with defaults; budget=N, backoff=T and watchdog=T
// clauses (comma-separated, any order, each implying "on") override them.
// Each key may appear at most once: duplicates are rejected rather than
// last-wins, so a mistyped spec fails loudly instead of silently dropping
// an override.
func ParseSpec(s string) (Spec, error) {
	if strings.TrimSpace(s) == "" {
		return Spec{}, nil
	}
	spec := Spec{Enabled: true, Budget: DefaultBudget, Backoff: DefaultBackoff}
	seen := make(map[string]bool, 3)
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		if field == "on" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Spec{}, fmt.Errorf("supervise spec: %q is not \"on\" or key=value", field)
		}
		if seen[key] {
			return Spec{}, fmt.Errorf("supervise spec: duplicate key %q", key)
		}
		seen[key] = true
		switch key {
		case "budget":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return Spec{}, fmt.Errorf("supervise spec: budget=%q must be a non-negative integer", val)
			}
			spec.Budget = n
		case "backoff":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || !(f >= 0) || math.IsInf(f, 1) { // not f < 0: NaN compares false
				return Spec{}, fmt.Errorf("supervise spec: backoff=%q must be a finite non-negative duration in virtual seconds", val)
			}
			spec.Backoff = f
		case "watchdog":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || !(f > 0) || math.IsInf(f, 1) {
				return Spec{}, fmt.Errorf("supervise spec: watchdog=%q must be a finite positive deadline in virtual seconds", val)
			}
			spec.Watchdog = f
		default:
			return Spec{}, fmt.Errorf("supervise spec: unknown key %q (want on, budget, backoff, watchdog)", key)
		}
	}
	return spec, nil
}

// String renders the spec in ParseSpec's grammar ("" when disabled).
func (s Spec) String() string {
	if !s.Enabled {
		return ""
	}
	parts := []string{"on"}
	if s.Budget != DefaultBudget {
		parts = append(parts, fmt.Sprintf("budget=%d", s.Budget))
	}
	if s.Backoff != DefaultBackoff {
		parts = append(parts, fmt.Sprintf("backoff=%g", s.Backoff))
	}
	if s.Watchdog > 0 {
		parts = append(parts, fmt.Sprintf("watchdog=%g", s.Watchdog))
	}
	return strings.Join(parts, ",")
}

// BudgetError reports a run that failed more times than the restart budget
// allows. Unwrap exposes the final failure.
type BudgetError struct {
	// Restarts is the number of supervised restarts consumed before the
	// final failure.
	Restarts int
	// Last is the failure that exhausted the budget.
	Last error
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("supervise: restart budget exhausted after %d restarts: %v", e.Restarts, e.Last)
}

func (e *BudgetError) Unwrap() error { return e.Last }

// Supervisable reports whether err is a failure class the supervisor
// recovers from: an injected crash fault, an exchange integrity violation,
// or a no-progress watchdog trip. Anything else (I/O errors, programming
// bugs) stays fatal.
func Supervisable(err error) bool {
	var ce *faults.CrashError
	var ee *cluster.ExchangeError
	var he *cluster.HangError
	return errors.As(err, &ce) || errors.As(err, &ee) || errors.As(err, &he)
}

// Catch runs one attempt body, converting the executor's typed panics into
// returned errors: the supervisable failures (*faults.CrashError,
// *cluster.ExchangeError, *cluster.HangError), cooperative cancellation
// (*cluster.CancelledError — the job service's preemption) and a halo too
// shallow for the run's loops (*cluster.HaloDepthError). OnFailure retries
// only the supervisable ones; the rest end the run with that error. Any
// other panic — a genuine bug — propagates. An error returned by f passes
// through unchanged.
func Catch(f func() error) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if e, ok := r.(error); ok {
			var ce *cluster.CancelledError
			var he *cluster.HaloDepthError
			if Supervisable(e) || errors.As(e, &ce) || errors.As(e, &he) {
				err = e
				return
			}
		}
		panic(r)
	}()
	return f()
}

// CatchCrash runs f, returning the *faults.CrashError it panicked with, or
// nil when it completed. Any other panic propagates. This is the shared
// helper behind the unsupervised crash-fault exit path of op2ca-run and
// op2ca-bench (report the crash, exit 3, let an operator -restore).
func CatchCrash(f func()) (c *faults.CrashError) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if ce, ok := r.(*faults.CrashError); ok {
			c = ce
			return
		}
		panic(r)
	}()
	f()
	return nil
}

// Supervisor holds the recovery state of one supervised run: the per-clause
// crash-arming mask, the escalating watchdog deadline, the restart budget
// ledger and the SuperviseStats it reports into.
type Supervisor struct {
	spec   Spec
	plan   *faults.Plan
	ring   *checkpoint.Ring
	tracer *obs.Tracer

	// armed tracks which crash clauses of the plan's schedule have not
	// fired yet; Adopt re-arms exactly those on a restored backend
	// (Restore disarms all of them).
	armed []bool
	// wd is the effective watchdog deadline, doubled on every trip.
	wd          float64
	restarts    int
	lastFailure error
	stats       cluster.SuperviseStats
}

// NewSupervisor builds a supervisor. plan, ring and tracer may each be nil:
// no crash schedule to track, restart-from-scratch recovery only, and no
// trace emission, respectively.
func NewSupervisor(spec Spec, plan *faults.Plan, ring *checkpoint.Ring, tracer *obs.Tracer) *Supervisor {
	s := &Supervisor{spec: spec, plan: plan, ring: ring, tracer: tracer, wd: spec.Watchdog,
		stats: cluster.SuperviseStats{Enabled: true}}
	n := len(plan.CrashSchedule())
	s.armed = make([]bool, n)
	for i := range s.armed {
		s.armed[i] = true
	}
	return s
}

// Restarts returns the number of supervised restarts consumed so far.
func (s *Supervisor) Restarts() int { return s.restarts }

// Watchdog returns the effective no-progress deadline for the next attempt
// (the configured deadline doubled once per trip so far; 0 = off).
func (s *Supervisor) Watchdog() float64 { return s.wd }

// Adopt arms a freshly built or restored backend with the supervisor's
// crash mask and watchdog deadline. The attempt body must call it on every
// backend it constructs before executing loops. A nil supervisor adopts
// nothing: the run is unsupervised.
func (s *Supervisor) Adopt(b *cluster.Backend) {
	if s == nil {
		return
	}
	b.ArmCrashes(s.armed)
	if s.wd > 0 {
		b.SetWatchdog(s.wd)
	}
}

// Recover begins one attempt: it scans the checkpoint ring newest-to-oldest
// for a valid snapshot, quarantining corrupt generations, and returns the
// state to resume from (nil = cold start). With no ring every attempt is a
// cold start.
func (s *Supervisor) Recover() *checkpoint.State {
	s.stats.Attempts++
	var st *checkpoint.State
	var gen checkpoint.Generation
	if s.ring != nil {
		var tried, quarantined int
		st, gen, tried, quarantined = s.ring.RecoverNewest()
		s.stats.GenerationsTried += tried
		s.stats.Quarantined += quarantined
	}
	if st == nil {
		s.stats.ColdStarts++
	}
	if s.tracer.Enabled() && s.lastFailure != nil {
		src, t := "cold", 0.0
		if st != nil {
			src = filepath.Base(gen.Path)
			for _, c := range st.Clocks {
				if c > t {
					t = c
				}
			}
		}
		s.tracer.Emit(0, obs.TrackExec, obs.Restart,
			fmt.Sprintf("%v <- %s", s.lastFailure, src), t, t, 0)
	}
	return st
}

// OnFailure charges one supervised failure against the restart budget. A
// nil return means the run should recover and retry; a non-nil return is
// the run's final error — the failure itself when it is not supervisable,
// or a *BudgetError when the budget is exhausted.
func (s *Supervisor) OnFailure(err error) error {
	if !Supervisable(err) {
		return err
	}
	if s.restarts >= s.spec.Budget {
		return &BudgetError{Restarts: s.restarts, Last: err}
	}
	s.restarts++
	s.stats.Restarts++
	s.stats.BackoffVirtual += s.spec.Backoff * pow2(s.restarts-1)
	var ce *faults.CrashError
	var he *cluster.HangError
	var ee *cluster.ExchangeError
	switch {
	case errors.As(err, &ce):
		s.stats.CrashRestarts++
		// The fired clause stays disarmed for the rest of the run: the
		// resumed attempt replays the pre-crash exchange sequence, and the
		// crashed node's replacement must not die at the same point again.
		for i, c := range s.plan.CrashSchedule() {
			if c.Exchange == ce.Exchange && i < len(s.armed) {
				s.armed[i] = false
			}
		}
	case errors.As(err, &he):
		s.stats.WatchdogTrips++
		// Escalate: execution is deterministic, so retrying under the same
		// deadline would trip at the same exchange forever. Doubling lets a
		// slow-but-progressing run eventually pass while a genuine hang
		// still exhausts the budget.
		s.wd *= 2
	case errors.As(err, &ee):
		s.stats.ExchangeRestarts++
	}
	s.lastFailure = err
	return nil
}

// pow2 is the saturated exponential backoff multiplier (see
// cluster.backoffFactor for the try>=63 overflow rationale).
func pow2(k int) float64 {
	if k >= 62 {
		return float64(int64(1) << 62)
	}
	return float64(int64(1) << uint(k))
}

// Finish publishes the supervisor's ledger into a run's stats (including
// write-verification quarantines the ring performed outside recovery
// scans). Call once, after the final successful attempt.
func (s *Supervisor) Finish(st *cluster.Stats) {
	if s.ring != nil {
		s.stats.Quarantined += s.ring.VerifyFailures()
	}
	if st != nil {
		st.Supervise = s.stats
	}
}

// Stats returns a copy of the supervisor's ledger (Enabled set).
func (s *Supervisor) Stats() cluster.SuperviseStats { return s.stats }

// Runner drives a supervised run to completion: recover, attempt, classify
// the failure, charge the budget, repeat.
type Runner struct {
	Spec   Spec
	Plan   *faults.Plan
	Ring   *checkpoint.Ring
	Tracer *obs.Tracer
	// Body runs one attempt from st (nil = cold start). It must call
	// sup.Adopt on every backend it constructs, and should write
	// checkpoints through sup's ring so later attempts can resume. A
	// returned error is fatal (no retry); supervised failures surface as
	// the typed panics Catch converts.
	Body func(st *checkpoint.State, sup *Supervisor) error
	// BeforeRecover, when set, runs after each supervised failure before
	// the next recovery scan: where a front-end logs the failure, and a
	// chaos hook for tests to corrupt the ring between attempts.
	BeforeRecover func(failure error, restarts int)
}

// Run executes the supervised loop and returns the supervisor (for Finish
// and stats) and the run's final error, nil on success.
func (r *Runner) Run() (*Supervisor, error) {
	s := NewSupervisor(r.Spec, r.Plan, r.Ring, r.Tracer)
	for {
		st := s.Recover()
		err := Catch(func() error { return r.Body(st, s) })
		if r.Ring != nil {
			// A body that writes generations itself (the bench harness) may
			// end, or fail, with one still committing: the recovery scan and
			// BeforeRecover must find it on disk, and a commit that failed
			// fails a run that would otherwise report success.
			if ferr := r.Ring.Flush(); err == nil {
				err = ferr
			}
		}
		if err == nil {
			return s, nil
		}
		if ferr := s.OnFailure(err); ferr != nil {
			return s, ferr
		}
		if r.BeforeRecover != nil {
			r.BeforeRecover(err, s.restarts)
		}
	}
}
