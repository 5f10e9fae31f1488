package cluster

import "fmt"

// CancelledError reports cooperative cancellation of a run: Cancel was
// called (from any goroutine) and the executor observed the flag at the
// next exchange boundary. It is raised as a typed panic from deliver, in
// the same place crash faults and watchdog trips fire, so a run never
// stops mid-exchange: every checkpoint generation written before the
// cancellation point is complete and restorable, and resuming from the
// newest one on a fresh Backend completes bitwise identical to an
// uninterrupted run.
//
// Cancellation is deliberate, not a failure: supervise.Supervisable
// deliberately does NOT classify *CancelledError as retryable, so a
// supervisor never burns restart budget resuming a run its owner asked to
// stop. Callers that want resume-after-cancel (job preemption) catch the
// error themselves and requeue.
type CancelledError struct {
	// Exchange is the fault-sequence number of the exchange boundary at
	// which the cancellation was observed.
	Exchange uint64
}

func (e *CancelledError) Error() string {
	return fmt.Sprintf("cluster: run cancelled at exchange %d", e.Exchange)
}

// Cancel requests cooperative cancellation of the run executing on this
// Backend. Safe to call from any goroutine at any time; the executing
// goroutine observes the flag at its next exchange boundary and panics
// with a typed *CancelledError. The flag is sticky for the lifetime of
// the Backend instance: a cancelled Backend stays cancelled (subsequent
// executions die at their first exchange), and resumption happens on a
// fresh Backend restored from a checkpoint.
func (b *Backend) Cancel() { b.cancelled.Store(true) }

// ExchangeSeq returns the current exchange sequence number — the count of
// exchange boundaries this run has passed. It keys deterministic fault
// decisions (crash=rankN@E clauses fire when the sequence hits E), so
// callers can probe a reference run's final sequence to place crash or
// cancellation points mid-run.
func (b *Backend) ExchangeSeq() uint64 { return b.faultSeq }
