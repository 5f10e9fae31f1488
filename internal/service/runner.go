package service

import (
	"errors"
	"io"
	"os"
	"path/filepath"

	"op2ca/internal/checkpoint"
	"op2ca/internal/cluster"
	"op2ca/internal/cmdutil"
	"op2ca/internal/core"
	"op2ca/internal/hydra"
	"op2ca/internal/mesh"
	"op2ca/internal/mgcfd"
	"op2ca/internal/supervise"
)

// attemptOutcome is what one successful attempt leaves behind.
type attemptOutcome struct {
	checksum  string
	residual  float64
	maxClock  float64
	exchanges uint64
	stats     *cluster.Stats
}

// runAttempt executes one attempt of the workload: construct the app and
// backend (fresh on a cold start, from st otherwise), adopt it into sup
// (arming crash clauses and the watchdog), hand the live backend to
// attach so the owner can cancel or preempt it, then drive the main loop
// with ring snapshots at the configured cadence. Failures surface as the
// executor's typed panics; use catchRun around this call.
func (w *workload) runAttempt(st *checkpoint.State, sup *supervise.Supervisor,
	ring *checkpoint.Ring, attach func(*cluster.Backend)) (attemptOutcome, error) {
	var out attemptOutcome
	m := mesh.RotorForNodes(w.spec.MeshNodes)
	ca := w.spec.Backend == "ca"

	// The cluster config embeds the app's freshly constructed Dats, so
	// both must be rebuilt per attempt — a restored attempt overwrites
	// the initial state with the snapshot's.
	var (
		ccfg  cluster.Config
		body  func(b core.Backend, cb *cluster.Backend, start int) error
		resid func(b core.Backend) float64
	)
	switch w.spec.App {
	case "mgcfd":
		h := mesh.NewHierarchy(m, w.spec.Levels, true)
		app := mgcfd.New(h)
		syn := mgcfd.NewSynthetic(app)
		maxChain := 2
		if w.spec.NChains > 1 {
			maxChain = 2 * w.spec.NChains
		}
		ccfg = cluster.Config{
			Prog: app.Prog, Primary: app.Primary, NParts: w.spec.Ranks,
			Depth: w.depth, MaxChainLen: maxChain, CA: ca,
			Machine: w.mach, Parallel: false, Faults: w.plan,
			Overlap: w.spec.Overlap,
		}
		body = func(b core.Backend, cb *cluster.Backend, start int) error {
			if start == 0 {
				app.Init(b)
			}
			for it := start; it < w.spec.Iters; it++ {
				if w.spec.NChains > 0 {
					syn.Run(b, w.spec.NChains, ca)
				}
				app.Cycle(b)
				if err := w.tick(cb, ring, it); err != nil {
					return err
				}
			}
			return nil
		}
		resid = app.Residual
	case "hydra":
		app := hydra.New(m)
		ccfg = cluster.Config{
			Prog: app.Prog, Primary: app.Nodes, NParts: w.spec.Ranks,
			Depth: w.depth, MaxChainLen: 6, CA: ca, Chains: w.chains,
			Machine: w.mach, Parallel: false, Faults: w.plan,
			Overlap: w.spec.Overlap,
		}
		body = func(b core.Backend, cb *cluster.Backend, start int) error {
			if start == 0 {
				app.RunSetup(b, ca)
			}
			for it := start; it < w.spec.Iters; it++ {
				app.RunIteration(b, ca)
				if err := w.tick(cb, ring, it); err != nil {
					return err
				}
			}
			return nil
		}
	}

	assign, err := cmdutil.Assignment(m, w.spec.Partitioner, w.spec.Ranks)
	if err != nil {
		return out, err
	}
	ccfg.Assign = assign

	var cb *cluster.Backend
	start := 0
	if st == nil {
		cb, err = cluster.New(ccfg)
	} else {
		cb, err = cluster.RestoreState(st, ccfg)
	}
	if err != nil {
		return out, err
	}
	defer cb.Close()
	sup.Adopt(cb)
	if st != nil {
		if start, err = cmdutil.ParseIterNote(st.Note); err != nil {
			return out, err
		}
	}
	if attach != nil {
		attach(cb)
	}
	if err := body(cb, cb, start); err != nil {
		return out, err
	}
	if resid != nil {
		out.residual = resid(cb)
	}
	out.checksum = cb.ChecksumDats()
	out.maxClock = cb.MaxClock()
	out.exchanges = cb.ExchangeSeq()
	out.stats = cb.Stats()
	return out, nil
}

// tick writes a ring generation after iteration it when the cadence says
// so, noted with the completed-iteration count a resume parses back.
func (w *workload) tick(cb *cluster.Backend, ring *checkpoint.Ring, it int) error {
	if ring == nil || (it+1)%w.spec.CheckpointEvery != 0 {
		return nil
	}
	note := cmdutil.IterNote(it + 1)
	_, err := ring.Write(func(wr io.Writer) error {
		return cb.Checkpoint(wr, note)
	})
	return err
}

// catchRun runs one attempt body, converting the executor's typed panics
// — supervisable failures (crash faults, exchange giveups, watchdog
// trips), cooperative cancellation and a halo too shallow for the job's
// loops (not supervisable: the job ends failed) — into returned errors.
// Anything else is a genuine bug and keeps panicking.
func catchRun(f func() error) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if e, ok := r.(error); ok {
			var ce *cluster.CancelledError
			var he *cluster.HaloDepthError
			if supervise.Supervisable(e) || errors.As(e, &ce) || errors.As(e, &he) {
				err = e
				return
			}
		}
		panic(r)
	}()
	return f()
}

// RunDirect validates and executes spec inline, exactly as a worker
// would but without queueing, placement or preemption: one supervisor,
// one ring, attempts until success or a final error. It is the service's
// CLI-parity oracle — a job served through the full HTTP path must
// produce a Result whose checksum, residual and max_clock_seconds are
// bitwise identical to RunDirect of the same spec.
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
	sup := supervise.NewSupervisor(w.sv, w.plan, ring, nil)
	attempts := 0
	for {
		st, err := sup.Recover()
		if err != nil {
			return nil, err
		}
		attempts++
		var out attemptOutcome
		err = catchRun(func() error {
			var e error
			out, e = w.runAttempt(st, sup, ring, nil)
			return e
		})
		if err == nil {
			sup.Finish(out.stats)
			return newResult("direct", w, out, sup, attempts, 0, nil), nil
		}
		if ferr := sup.OnFailure(err); ferr != nil {
			return nil, ferr
		}
	}
}
