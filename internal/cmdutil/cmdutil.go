// Package cmdutil is the shared command-line wiring of the op2ca binaries:
// the -trace/-metrics/-faults/-checkpoint/-restore/-supervise/-autotune/
// -overlap/-serial flag set, which folds into a run description, its
// validation rules (distributed-backend requirements, the supervise/restore
// conflict), observability export, crash reporting and the exit-code
// conventions.
package cmdutil

import (
	"flag"
	"fmt"
	"io"
	"os"

	"op2ca/internal/checkpoint"
	"op2ca/internal/cluster"
	"op2ca/internal/faults"
	"op2ca/internal/obs"
	"op2ca/internal/runspec"
	"op2ca/internal/supervise"
)

// Exit codes shared by every op2ca command. 0 is success; 1 is the
// catch-all fatal error; 2 is a usage failure — flag.Parse's own, or sizes
// that do not make a problem (more ranks than the generated mesh has nodes).
const (
	ExitFatal = 1
	// ExitCrash reports an injected crash fault that terminated an
	// unsupervised run; the process prints a -restore / -supervise hint
	// first, so an operator (or the job service) can resume it.
	ExitCrash = 3
)

// RunFlags is the raw shared flag set. Register binds it to a flag set; Fold
// parses what the flags say by themselves; Resolve folds them into the
// description of one application run and validates the combination.
type RunFlags struct {
	Trace      string
	Metrics    string
	ModelCheck bool
	Profile    bool
	AutoTune   bool
	Overlap    bool
	Serial     bool
	Faults     string
	Checkpoint string
	Restore    string
	Supervise  string
}

// Register declares the shared flags on fs with the canonical help text.
func (f *RunFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Trace, "trace", "", "write a Chrome trace-event JSON timeline to this file")
	fs.StringVar(&f.Metrics, "metrics", "", "write Prometheus text metrics to this file (\"-\" for stdout)")
	fs.BoolVar(&f.ModelCheck, "model-check", false, "print Equation (1)/(3) predictions next to measured virtual times")
	fs.BoolVar(&f.Profile, "profile", false,
		"print the critical-path / communication-matrix / imbalance report (forces tracing; the run stays bit-identical)")
	fs.BoolVar(&f.AutoTune, "autotune", false,
		"let the model-driven autotuner pick each chain's execution policy (requires -backend ca); results stay bit-identical to any static configuration")
	fs.BoolVar(&f.Overlap, "overlap", false,
		"run CA chains with overlapped (pipelined post/complete) exchanges (results stay bit-identical; virtual time drops)")
	fs.BoolVar(&f.Serial, "serial", false, "run simulated ranks on one host thread")
	fs.StringVar(&f.Faults, "faults", "",
		"deterministic fault-injection spec, e.g. drop=0.01,corrupt=0.002,seed=42 (see internal/faults); results stay bit-identical, virtual times include recovery")
	fs.StringVar(&f.Checkpoint, "checkpoint", "",
		"periodic snapshots, e.g. every=5,path=ck.bin,keep=3: checkpoint the backend after every N iterations, rotating keep=K verified generations (requires -backend op2 or ca)")
	fs.StringVar(&f.Restore, "restore", "",
		"resume from a checkpoint file instead of initialising; completed iterations are skipped (requires -backend op2 or ca)")
	fs.StringVar(&f.Supervise, "supervise", "",
		"self-healing supervised execution, e.g. on or budget=8,backoff=1,watchdog=50: catch injected crashes, exchange failures and no-progress stalls, restore from the newest valid checkpoint generation and resume (requires -backend op2 or ca; incompatible with -restore)")
}

// Run is a command-line run: the resolved description (with the shared
// tracer attached) plus what only a command line has — the checkpoint ring
// at the path the user named, the file to restore from, and the reports to
// print. After Fold alone the description names no application: it carries
// the fault plan, the supervise spec and the host-side knobs, for a
// front-end (op2ca-bench) that describes its runs itself.
type Run struct {
	*runspec.Run
	Flags RunFlags
	Prog  string
	Ring  *checkpoint.Ring
}

// Fold parses the specs the shared flags carry — fault plan, supervise
// spec, checkpoint spec — rejects -supervise with -restore, and builds the
// tracer and the checkpoint ring. prog prefixes diagnostics.
func (f *RunFlags) Fold(prog string) (*Run, error) {
	run := &runspec.Run{}
	var err error
	if f.Faults != "" {
		if run.Plan, err = faults.Parse(f.Faults); err != nil {
			return nil, err
		}
	}
	if run.Supervise, err = supervise.ParseSpec(f.Supervise); err != nil {
		return nil, err
	}
	return f.attach(prog, run)
}

// attach adds the flags' host side to a run whose fault plan and supervise
// spec are parsed: the cadence, tracer and threading on the run, the ring
// beside it.
func (f *RunFlags) attach(prog string, run *runspec.Run) (*Run, error) {
	r := &Run{Run: run, Flags: *f, Prog: prog}
	if r.Supervise.Enabled && f.Restore != "" {
		return nil, fmt.Errorf("-supervise and -restore are incompatible: the supervisor recovers from the checkpoint ring itself")
	}
	r.Parallel = !f.Serial
	if f.Trace != "" || f.Profile {
		r.Tracer = obs.New()
	}
	if f.Checkpoint != "" {
		ckpt, err := checkpoint.ParseSpec(f.Checkpoint)
		if err != nil {
			return nil, err
		}
		r.Spec.CheckpointEvery = ckpt.Every
		if r.Ring, err = checkpoint.NewRing(ckpt); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Resolve folds the shared flags into spec (fault plan, supervise spec,
// autotune, overlap), resolves it, validates the flag combination against
// the chosen backend, and attaches what Fold builds. Warnings go to stderr.
func (f *RunFlags) Resolve(prog string, spec runspec.Spec, stderr io.Writer) (*Run, error) {
	spec.Faults, spec.Supervise, spec.AutoTune, spec.Overlap = f.Faults, f.Supervise, f.AutoTune, f.Overlap
	if f.AutoTune && spec.Backend != "ca" {
		fmt.Fprintf(stderr, "%s: -autotune requires -backend ca; ignored\n", prog)
		spec.AutoTune = false
	}
	run, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	if (f.Checkpoint != "" || f.Restore != "" || run.Supervise.Enabled) && spec.Backend == "seq" {
		return nil, fmt.Errorf("-checkpoint/-restore/-supervise need a distributed backend (op2 or ca)")
	}
	return f.attach(prog, run)
}

// ReportCrash reports an injected crash that killed an unsupervised run and
// prints the resume hint when a checkpoint generation survives — the newest
// the ring committed, the one still committing when the crash fired included
// (Generations joins it). The caller exits with ExitCrash.
func (r *Run) ReportCrash(stderr io.Writer, crash *faults.CrashError) {
	fmt.Fprintf(stderr, "%s: injected crash of rank %d at exchange %d\n", r.Prog, crash.Rank, crash.Exchange)
	if r.Ring != nil {
		if gens := r.Ring.Generations(); len(gens) > 0 {
			fmt.Fprintf(stderr, "%s: resume with -restore %s (drop the crash= clause), or rerun with -supervise on\n",
				r.Prog, gens[0].Path)
		}
	}
}

// PrintRunSummary prints the post-run fault and supervision recovery lines
// (nothing when neither applies).
func (r *Run) PrintRunSummary(w io.Writer, cb *cluster.Backend) {
	if r.Plan != nil {
		fmt.Fprintf(w, "faults: %s -> %s\n", r.Plan, cb.Stats().Faults)
	}
	if sv := cb.Stats().Supervise; sv.Enabled && sv.Restarts > 0 {
		fmt.Fprintf(w, "supervise: recovered from %d failures (crash %d exchange %d watchdog %d), %d generations quarantined\n",
			sv.Restarts, sv.CrashRestarts, sv.ExchangeRestarts, sv.WatchdogTrips, sv.Quarantined)
	}
}

// WriteTrace exports the -trace file, confirming on stdout.
func (r *Run) WriteTrace(stdout io.Writer) error {
	path := r.Flags.Trace
	if path == "" {
		return nil
	}
	if err := r.Tracer.WriteChromeTraceFile(path); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trace: %d spans written to %s (open in Perfetto or chrome://tracing)\n", r.Tracer.Len(), path)
	return nil
}

// WriteObservability exports the trace and metrics files requested on the
// command line; stdout receives the confirmation line and "-metrics -".
func (r *Run) WriteObservability(stdout io.Writer, cb *cluster.Backend) error {
	if err := r.WriteTrace(stdout); err != nil {
		return err
	}
	if path := r.Flags.Metrics; path != "" {
		w := stdout
		if path != "-" {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		mw := obs.NewMetricsWriter(w)
		cb.Stats().WriteMetrics(mw)
		if r.Tracer != nil {
			r.Tracer.WriteSpanMetrics(mw)
		}
		return mw.Flush()
	}
	return nil
}
