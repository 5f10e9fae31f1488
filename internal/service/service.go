package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"op2ca/internal/checkpoint"
	"op2ca/internal/cluster"
	"op2ca/internal/runspec"
	"op2ca/internal/supervise"
)

// Config sizes a Service.
type Config struct {
	// Workers is the executor pool size: each worker stands in for a
	// cluster node hosting one simulated run at a time. Default 2.
	Workers int
	// QueueCap bounds jobs awaiting placement; admissions beyond it are
	// shed with an OverloadError. Requeues (preemption, supervised
	// restart) are exempt — an admitted job is never shed. Default 8.
	QueueCap int
	// TenantCap bounds one tenant's share of the queue. Default QueueCap.
	TenantCap int
	// DataDir holds the per-job checkpoint rings and the spare files their
	// generations are written over (at most Workers × (Keep + 1), removed on
	// Close). Default: a fresh temporary directory, removed on Close.
	DataDir string
	// Keep is the ring generations retained per job. Default 3.
	Keep int
}

const defaultKeep = 3

// Sentinel and typed errors the HTTP layer maps onto status codes.
var (
	ErrNotFound = errors.New("service: no such job")
	ErrClosed   = errors.New("service: shutting down")
)

// ValidationError marks a rejected job spec (HTTP 400).
type ValidationError struct{ Err error }

func (e *ValidationError) Error() string { return "invalid job spec: " + e.Err.Error() }
func (e *ValidationError) Unwrap() error { return e.Err }

// OverloadError reports admission-control shedding (HTTP 429): the queue
// is full, or the tenant has used up its share of it.
type OverloadError struct {
	Scope      string // "queue" or "tenant"
	Tenant     string
	RetryAfter int // seconds
}

func (e *OverloadError) Error() string {
	if e.Scope == "tenant" {
		return fmt.Sprintf("service: tenant %q queue quota exhausted, retry after %ds", e.Tenant, e.RetryAfter)
	}
	return fmt.Sprintf("service: admission queue full, retry after %ds", e.RetryAfter)
}

// NotReadyError reports a result request for a job with no result: still
// in flight, or terminal without one (failed, cancelled). HTTP 409.
type NotReadyError struct {
	ID    string
	State State
	Cause string
}

func (e *NotReadyError) Error() string {
	msg := fmt.Sprintf("service: job %s has no result (state %s)", e.ID, e.State)
	if e.Cause != "" {
		msg += ": " + e.Cause
	}
	return msg
}

// slabLender is cluster.Lender as the service uses it; tests put a lender
// that poisons and counts in front of one.
type slabLender interface {
	cluster.SlabLender
	Reset()
	Stats() cluster.LenderStats
}

// worker is one executor slot. busy and load are guarded by the service
// mutex; the channel carries at most the one job the dispatcher assigned
// while the worker was idle.
type worker struct {
	name string
	ch   chan *job
	busy *job
	load float64 // virtual seconds of completed attempts
	jobs int     // jobs finished here
}

// Service is the multi-tenant job service over the simulated cluster.
type Service struct {
	cfg     Config
	dataDir string
	ownsDir bool
	// spares is the free list every job's ring retires its generations into
	// and stages new ones over: a settled job's files carry the next job's
	// generations. Sized to what the pool can have in circulation — per
	// worker one job's Keep generations and the file in flight.
	spares *checkpoint.Spares
	// parts keeps the partition assignments jobs computed, for the jobs after
	// them on the same mesh, partitioner and rank count (see partStore).
	parts *partStore
	// slabs lends every job's backends their flat storage — dats, payload
	// slab, gather buffer — and gets it back when the attempt's backend is
	// closed, for the next job's (see cluster.Lender: what sits in it
	// unborrowed is the garbage collector's to take).
	slabs slabLender
	wg    sync.WaitGroup

	mu      sync.Mutex
	cond    *sync.Cond // broadcast on every job state change
	closed  bool
	nextID  int
	jobs    map[string]*job
	order   []string
	queue   []*job // runnable jobs awaiting placement, FIFO
	workers []*worker
	// scrub lists the rings of jobs settled under the current hold of mu;
	// unlockAndScrub clears them once the lock is released. beforeScrub, when
	// set (tests), runs between the two.
	scrub       []*checkpoint.Ring
	beforeScrub func()

	// Counters for /metrics.
	submitted  map[string]int // accepted, by tenant
	shedQueue  int
	shedTenant int
	nDone      int
	nFailed    int
	nCancelled int
	preempts   int
	restarts   int
	ring       checkpoint.RingStats // summed over the rings of settled jobs
}

// New starts a Service: cfg defaults applied, data directory resolved,
// worker pool running.
func New(cfg Config) (*Service, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 8
	}
	if cfg.TenantCap <= 0 {
		cfg.TenantCap = cfg.QueueCap
	}
	if cfg.Keep <= 0 {
		cfg.Keep = defaultKeep
	}
	s := &Service{
		cfg:       cfg,
		dataDir:   cfg.DataDir,
		parts:     newPartStore(partStoreBudget),
		slabs:     new(cluster.Lender),
		jobs:      make(map[string]*job),
		submitted: make(map[string]int),
	}
	s.cond = sync.NewCond(&s.mu)
	if s.dataDir == "" {
		dir, err := os.MkdirTemp("", "op2ca-service-*")
		if err != nil {
			return nil, err
		}
		s.dataDir, s.ownsDir = dir, true
	} else if err := os.MkdirAll(s.dataDir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if s.spares, err = checkpoint.OpenSpares(s.dataDir, cfg.Workers*(cfg.Keep+1)); err != nil {
		if s.ownsDir {
			os.RemoveAll(s.dataDir)
		}
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{name: fmt.Sprintf("w%02d", i), ch: make(chan *job, 1)}
		s.workers = append(s.workers, w)
		s.wg.Add(1)
		go s.workerLoop(w)
	}
	return s, nil
}

// Submit admits a job. Spec errors return a *ValidationError; a full
// queue or an exhausted tenant quota returns an *OverloadError with a
// retry hint; otherwise the job is queued and its view returned.
func (s *Service) Submit(spec JobSpec) (JobView, error) {
	w, err := spec.Validate()
	if err != nil {
		return JobView{}, &ValidationError{Err: err}
	}
	w.run.Assignments, w.run.Slabs = s.parts, s.slabs
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobView{}, ErrClosed
	}
	if len(s.queue) >= s.cfg.QueueCap {
		s.shedQueue++
		return JobView{}, &OverloadError{Scope: "queue", Tenant: w.spec.Tenant, RetryAfter: s.retryAfterLocked()}
	}
	queued := 0
	for _, q := range s.queue {
		if q.w.spec.Tenant == w.spec.Tenant {
			queued++
		}
	}
	if queued >= s.cfg.TenantCap {
		s.shedTenant++
		return JobView{}, &OverloadError{Scope: "tenant", Tenant: w.spec.Tenant, RetryAfter: s.retryAfterLocked()}
	}

	s.nextID++
	id := fmt.Sprintf("j%06d", s.nextID)
	ring, err := s.spares.NewRing(checkpoint.Spec{
		Every: w.spec.CheckpointEvery, Path: filepath.Join(s.dataDir, id+".ck"), Keep: s.cfg.Keep,
	})
	if err != nil {
		return JobView{}, err
	}
	j := &job{
		id: id, w: w, ring: ring,
		sup:   supervise.NewSupervisor(w.run.Supervise, w.run.Plan, ring, nil),
		state: StateQueued, submitted: time.Now(),
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.queue = append(s.queue, j)
	s.submitted[w.spec.Tenant]++
	s.eventLocked(j, StateQueued, "", "accepted")
	s.dispatchLocked()
	return s.viewLocked(j), nil
}

// retryAfterLocked estimates how long a shed client should wait before
// resubmitting: the expected queue drain time, computed from the pool's
// observed throughput. Each worker's load/jobs counters give the mean
// virtual seconds per completed job (1s before anything has finished);
// the queue drains at that rate across all workers. Rounded up, and never
// below the old hardcoded hint of one second.
func (s *Service) retryAfterLocked() int {
	var load float64
	var jobs int
	for _, w := range s.workers {
		load += w.load
		jobs += w.jobs
	}
	perJob := 1.0
	if jobs > 0 {
		perJob = load / float64(jobs)
	}
	drain := perJob * float64(len(s.queue)) / float64(len(s.workers))
	after := int(math.Ceil(drain))
	if after < 1 {
		after = 1
	}
	return after
}

// Get returns a job's status view.
func (s *Service) Get(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobView{}, ErrNotFound
	}
	return s.viewLocked(j), nil
}

// List returns every job's view in submission order, optionally filtered
// by tenant ("" = all).
func (s *Service) List(tenant string) []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []JobView
	for _, id := range s.order {
		j := s.jobs[id]
		if tenant == "" || j.w.spec.Tenant == tenant {
			out = append(out, s.viewLocked(j))
		}
	}
	return out
}

// Result returns a done job's committed result; a *NotReadyError
// otherwise.
func (s *Service) Result(id string) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, ErrNotFound
	}
	if j.result == nil {
		return nil, &NotReadyError{ID: id, State: j.state, Cause: j.errMsg}
	}
	return j.result, nil
}

// Cancel requests cancellation: a queued job cancels immediately, a
// running one at its next exchange boundary (the worker observes the
// cooperative flag and abandons the attempt). Idempotent; cancelling a
// terminal job is a no-op returning its final view.
func (s *Service) Cancel(id string) (JobView, error) {
	s.mu.Lock()
	defer s.unlockAndScrub()
	j := s.jobs[id]
	if j == nil {
		return JobView{}, ErrNotFound
	}
	if !j.state.Terminal() && !j.cancelled {
		j.cancelled = true
		switch j.state {
		case StateQueued, StatePreempted:
			s.unqueueLocked(j)
			s.finishLocked(j, StateCancelled, "cancelled while queued")
		case StateRunning:
			s.eventLocked(j, StateRunning, j.worker, "cancel requested")
			if j.backend != nil {
				j.backend.Cancel()
			}
		}
		s.dispatchLocked()
	}
	return s.viewLocked(j), nil
}

// Preempt asks the job to vacate its worker at the next exchange
// boundary and requeue for a different one, resuming from its newest
// ring generation; the supervise budget is not charged. Preempting a
// queued job marks the intent — the first attempt yields immediately,
// which still forces a worker migration. No-op on terminal jobs.
func (s *Service) Preempt(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobView{}, ErrNotFound
	}
	if !j.state.Terminal() && !j.cancelled && !j.preempt {
		j.preempt = true
		s.eventLocked(j, j.state, j.worker, "preempt requested")
		if j.state == StateRunning && j.backend != nil {
			j.backend.Cancel()
		}
	}
	return s.viewLocked(j), nil
}

// Events returns the job's lifecycle events after index `after`,
// blocking until new ones exist, the job is terminal, or ctx is done.
// terminal=true means the stream is complete. A closing service needs no
// case of its own: Close settles every job, so a stream over one still ends
// with the job's terminal event.
func (s *Service) Events(ctx context.Context, id string, after int) (evs []Event, terminal bool, err error) {
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		j := s.jobs[id]
		if j == nil {
			return nil, false, ErrNotFound
		}
		if after > len(j.events) {
			after = len(j.events)
		}
		if len(j.events) > after || j.state.Terminal() {
			return append([]Event(nil), j.events[after:]...), j.state.Terminal(), nil
		}
		s.cond.Wait()
	}
}

// Health is the liveness summary.
type Health struct {
	Status  string `json:"status"`
	Workers int    `json:"workers"`
	Queued  int    `json:"queued"`
	Running int    `json:"running"`
	Jobs    int    `json:"jobs"`
}

// Health reports pool and queue occupancy.
func (s *Service) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := Health{Status: "ok", Workers: len(s.workers), Queued: len(s.queue), Jobs: len(s.jobs)}
	if s.closed {
		h.Status = "shutting down"
	}
	for _, w := range s.workers {
		if w.busy != nil {
			h.Running++
		}
	}
	return h
}

// Drain blocks until every admitted job is terminal.
func (s *Service) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		settled := true
		for _, j := range s.jobs {
			if !j.state.Terminal() {
				settled = false
				break
			}
		}
		if settled {
			return
		}
		s.cond.Wait()
	}
}

// Close stops the service: queued jobs are cancelled, running attempts
// are cancelled cooperatively and their jobs marked cancelled, workers
// exit once their current attempt unwinds. Blocks until the pool is
// down. The stored partition assignments and the free slabs are let go of;
// the spare files and a service-owned data directory are removed.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	for _, j := range s.queue {
		j.cancelled = true
		s.finishLocked(j, StateCancelled, "service shutting down")
	}
	s.queue = nil
	for _, w := range s.workers {
		if w.busy != nil {
			w.busy.cancelled = true
			if w.busy.backend != nil {
				w.busy.backend.Cancel()
			}
		}
		close(w.ch)
	}
	s.cond.Broadcast()
	s.unlockAndScrub()
	s.wg.Wait()
	s.parts.reset()
	s.slabs.Reset()
	s.spares.Close()
	if s.ownsDir {
		os.RemoveAll(s.dataDir)
	}
}

// dispatchLocked pairs runnable jobs with idle workers, least-loaded
// first, until one side runs dry. A job that has already run somewhere
// is never placed back on that worker while the pool has alternatives:
// preemption and crash recovery must migrate.
func (s *Service) dispatchLocked() {
	if s.closed {
		return
	}
	for {
		placed := false
		for _, j := range s.queue {
			w := s.placeLocked(j)
			if w == nil {
				continue // every idle worker is this job's excluded one
			}
			s.unqueueLocked(j)
			j.state = StateRunning
			j.worker = w.name
			j.attempts++
			if len(j.workers) == 0 || j.workers[len(j.workers)-1] != w.name {
				j.workers = append(j.workers, w.name)
			}
			s.eventLocked(j, StateRunning, w.name, fmt.Sprintf("attempt %d", j.attempts))
			w.busy = j
			w.ch <- j // cap-1 buffer, worker idle: never blocks
			placed = true
			break
		}
		if !placed {
			return
		}
	}
}

// placeLocked picks the least-loaded idle worker for j, excluding the
// worker j last ran on whenever the pool has more than one worker — even
// if that means waiting for a busy alternative to free up.
func (s *Service) placeLocked(j *job) *worker {
	var best *worker
	for _, w := range s.workers {
		if w.busy != nil {
			continue
		}
		if len(s.workers) > 1 && j.worker == w.name && j.attempts > 0 {
			continue
		}
		if best == nil || w.load < best.load {
			best = w
		}
	}
	return best
}

func (s *Service) unqueueLocked(j *job) {
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// requeueLocked puts a preempted or restarting job back in line, unless
// cancellation or shutdown overtook it.
func (s *Service) requeueLocked(j *job, st State, msg string) {
	if s.closed {
		s.finishLocked(j, StateCancelled, "service shutting down")
		return
	}
	if j.cancelled {
		s.finishLocked(j, StateCancelled, "cancelled")
		return
	}
	j.state = st
	s.queue = append(s.queue, j)
	s.eventLocked(j, st, j.worker, msg)
}

// finishLocked commits a terminal state.
func (s *Service) finishLocked(j *job, st State, msg string) {
	j.state = st
	j.errMsg = ""
	if st != StateDone {
		j.errMsg = msg
	}
	j.finished = time.Now()
	s.eventLocked(j, st, j.worker, msg)
	switch st {
	case StateDone:
		s.nDone++
	case StateFailed:
		s.nFailed++
	case StateCancelled:
		s.nCancelled++
	}
	// A settled job restarts no more: let go of the mesh and partition its
	// attempts shared, and of the resolved run description they were built
	// from — parsed chain configuration, fault plan, supervise spec. The
	// record keeps the spec it was resolved from, which is all a view reads
	// and all a post-mortem of a failed job needs to resolve it again.
	j.w.problem, j.w.run = nil, nil
	// Its ring is idle — every attempt flushed it on the way out — so the
	// counters are final.
	s.ring.Add(j.ring.Stats())
	if st != StateFailed {
		// Scrub the ring: the job is settled, its generations are dead
		// weight — retired into the spares, where the next job's generations
		// overwrite them. Failed jobs keep theirs for post-mortems. Renaming
		// is disk work, so it waits for unlockAndScrub; nobody else touches
		// a settled job's ring.
		s.scrub = append(s.scrub, j.ring)
	}
	// Nor does it recover or checkpoint again: the record lets go of the
	// ring and the supervisor holding it, as of the Problem above.
	j.ring, j.sup = nil, nil
}

// unlockAndScrub releases the service lock and then clears the rings
// finishLocked queued. Every path that can settle a job ends with it in
// place of a bare Unlock, so no submit, view or event stream waits on a disk
// unlink: the job is terminal and observable first, its ring empty shortly
// after.
func (s *Service) unlockAndScrub() {
	rings := s.scrub
	s.scrub = nil
	s.mu.Unlock()
	if len(rings) == 0 {
		return
	}
	if s.beforeScrub != nil {
		s.beforeScrub()
	}
	for _, r := range rings {
		r.Clear()
	}
}

// eventLocked appends to the job's lifecycle log and wakes every waiter.
func (s *Service) eventLocked(j *job, st State, worker, msg string) {
	j.events = append(j.events, Event{
		Seq: len(j.events), Time: time.Now(), State: st, Worker: worker, Msg: msg,
	})
	s.cond.Broadcast()
}

func (s *Service) viewLocked(j *job) JobView {
	v := JobView{
		ID: j.id, Tenant: j.w.spec.Tenant, App: j.w.spec.App,
		State: j.state, Worker: j.worker,
		Workers:  append([]string(nil), j.workers...),
		Attempts: j.attempts, Preemptions: j.preemptions, Restarts: j.restarts,
		Error: j.errMsg, Submitted: j.submitted,
		Events: append([]Event(nil), j.events...),
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// workerLoop is one executor: take the assigned job, run one attempt,
// settle it, repeat until the channel closes at shutdown.
func (s *Service) workerLoop(w *worker) {
	defer s.wg.Done()
	for j := range w.ch {
		s.runJob(w, j)
	}
}

// runJob executes one attempt of j on w and settles the outcome: done,
// cancelled, preempted (requeue, no budget), supervised restart
// (requeue, budget charged) or failed. The supervisor and ring are
// exclusively ours between dispatch and settlement, so Recover/OnFailure
// run without the service lock.
func (s *Service) runJob(w *worker, j *job) {
	first := j.w.problem == nil // this attempt builds the job's Problem
	out, err := j.w.runAttempt(j.sup.Recover(), j.sup, j.ring, func(a *runspec.Attempt) {
		s.mu.Lock()
		j.backend = a.CB
		if first {
			// The one per-job record of why two equal jobs differ by a
			// partitioner's run time.
			msg := "partition computed"
			if j.w.problem.AssignStored {
				msg = "partition from store"
			}
			s.eventLocked(j, StateRunning, w.name, msg)
		}
		// An intent that landed before the backend existed takes
		// effect at the attempt's first exchange boundary.
		if j.cancelled || j.preempt {
			a.CB.Cancel()
		}
		s.mu.Unlock()
	})

	s.mu.Lock()
	defer s.unlockAndScrub()
	j.backend = nil
	w.busy = nil
	j.restarts = j.sup.Restarts()

	var ce *cluster.CancelledError
	switch {
	case err == nil:
		w.load += out.MaxClock
		w.jobs++
		j.sup.Finish(out.Stats)
		j.restarts = j.sup.Restarts()
		j.result = newResult(j.id, j.w, out, j.sup, j.attempts, j.preemptions, j.workers)
		s.finishLocked(j, StateDone, fmt.Sprintf("checksum %s", out.Checksum))
	case errors.As(err, &ce) && j.cancelled:
		s.finishLocked(j, StateCancelled, err.Error())
	case errors.As(err, &ce):
		// Preemption: the ring keeps the pre-cancel generations, so the
		// next attempt resumes where the last snapshot left off — on a
		// different worker, and with no supervise budget charged.
		j.preempt = false
		j.preemptions++
		s.preempts++
		s.requeueLocked(j, StatePreempted, err.Error())
	default:
		if ferr := j.sup.OnFailure(err); ferr != nil {
			s.finishLocked(j, StateFailed, ferr.Error())
		} else {
			s.restarts++
			s.requeueLocked(j, StateQueued, "supervised restart: "+err.Error())
		}
	}
	s.dispatchLocked()
}
