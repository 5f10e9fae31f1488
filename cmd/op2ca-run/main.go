// Command op2ca-run runs one of the paper's two applications on a synthetic
// rotor mesh under the sequential reference, the standard distributed OP2
// back-end, or the communication-avoiding back-end:
//
//   - -app mgcfd: the MG-CFD mini-app (3-D unstructured multigrid
//     finite-volume Euler solver), optionally with the paper's synthetic
//     loop-chains (-nchains);
//   - -app hydra: the Hydra proxy — the six published loop-chains of Tables
//     3-4 (weight, period, gradl, vflux, iflux, jacob) inside a 5-stage
//     Runge-Kutta skeleton. By default the CA back-end runs the paper's
//     configured halo extensions (the Section 3.4 configuration file);
//     -safe lets the inspector choose conservative extensions instead, and
//     -config loads a custom file.
//
// The flags parse into a runspec.Spec — the same run description the job
// service accepts — and internal/runspec drives it.
//
// Usage:
//
//	op2ca-run -app mgcfd -mesh-nodes 100000 -ranks 16 -backend ca -nchains 8 -iters 10
//	op2ca-run -app hydra -mesh-nodes 60000 -ranks 16 -backend ca -iters 20 -stats
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"op2ca/internal/checkpoint"
	"op2ca/internal/cmdutil"
	"op2ca/internal/runspec"
	"op2ca/internal/supervise"
)

const prog = "op2ca-run"

func main() {
	_, code := run(os.Args[1:], os.Stdout, os.Stderr)
	os.Exit(code)
}

// run is the whole command: it parses args, executes the run they describe,
// prints the reports to stdout and the diagnostics to stderr, and returns
// the run's outcome with the process exit code.
func run(args []string, stdout, stderr io.Writer) (out runspec.Outcome, code int) {
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		spec   runspec.Spec
		shared cmdutil.RunFlags
		prof   cmdutil.ProfileFlags
	)
	fs.StringVar(&spec.App, "app", "", "application: mgcfd or hydra")
	fs.IntVar(&spec.MeshNodes, "mesh-nodes", 60000, "approximate node count (finest level for mgcfd)")
	fs.IntVar(&spec.Levels, "levels", 0, "mgcfd: multigrid levels (default 3)")
	fs.IntVar(&spec.NChains, "nchains", 0, "mgcfd: synthetic chain pairs per iteration, 0 disables (default 4)")
	fs.IntVar(&spec.Ranks, "ranks", 8, "simulated MPI ranks (ignored for -backend seq)")
	fs.StringVar(&spec.Backend, "backend", "ca", "backend: seq, op2 or ca")
	fs.IntVar(&spec.Iters, "iters", 0, "main-loop iterations (default 10 for mgcfd, 20 for hydra as the paper measures)")
	fs.StringVar(&spec.Partitioner, "partitioner", "", "partitioner: kway, rib, rcb or block (default kway for mgcfd, rib for hydra)")
	fs.StringVar(&spec.Machine, "machine", "archer2", "machine model: archer2, cirrus or laptop")
	fs.BoolVar(&spec.Safe, "safe", false, "hydra: let the inspector pick conservative halo extensions")
	cfgPath := fs.String("config", "", "hydra: CA chain configuration file (default: built-in paper config)")
	explain := fs.Bool("explain", false, "hydra: print each chain's inspection plan and exit")
	stats := fs.Bool("stats", false, "print per-loop/per-chain statistics")
	verify := fs.Bool("verify", false, "compare final state against the sequential reference")
	shared.Register(fs)
	prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return out, 0
		}
		return out, 2
	}
	// Sizes that do not make a problem are a usage error; everything else a
	// run can fail with is fatal.
	fatal := func(err error) (runspec.Outcome, int) {
		fmt.Fprintf(stderr, "%s: %v\n", prog, err)
		var size *runspec.SizeError
		if errors.As(err, &size) {
			return out, 2
		}
		return out, cmdutil.ExitFatal
	}
	stopProf, err := prof.Start()
	if err != nil {
		return fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil && code == 0 {
			out, code = fatal(err)
		}
	}()

	// The apps' defaults differ; a flag the user gave always wins, so one
	// that does not apply to the chosen app reaches Resolve and is rejected.
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	def := func(name string, p *int, v int) {
		if !given[name] {
			*p = v
		}
	}
	switch spec.App {
	case "mgcfd":
		def("levels", &spec.Levels, 3)
		def("nchains", &spec.NChains, 4)
		def("iters", &spec.Iters, 10)
	case "hydra":
		def("iters", &spec.Iters, 20)
	}
	if *cfgPath != "" {
		text, err := os.ReadFile(*cfgPath)
		if err != nil {
			return fatal(err)
		}
		spec.Chains = string(text)
	}
	r, err := shared.Resolve(prog, spec, stderr)
	if err != nil {
		return fatal(err)
	}
	if *explain {
		if err := r.Explain(stdout); err != nil {
			return fatal(err)
		}
		return out, 0
	}

	// One mesh, hierarchy, declared app and partition for the invocation: a
	// supervised restart builds a backend on them, nothing else.
	p, err := r.NewProblem()
	if err != nil {
		return fatal(err)
	}
	// run owns the attempt's backend (its worker pool, under -serial=false);
	// a failed supervised attempt has already closed its own.
	var att *runspec.Attempt
	defer func() {
		if att != nil {
			att.Close()
		}
	}()
	setup := ""
	if spec.App == "hydra" {
		setup = "setup + "
	}
	described := false
	describe := func(a *runspec.Attempt) {
		if described {
			return
		}
		described = true
		fmt.Fprintln(stdout, a.Describe)
		if r.Flags.Restore != "" {
			fmt.Fprintf(stdout, "restored from %s: %s%d iterations already complete\n", r.Flags.Restore, setup, a.Start)
		}
	}
	if r.Supervise.Enabled {
		// Supervised self-healing execution: the supervisor owns the whole
		// construct/run loop, restoring from the newest valid checkpoint
		// generation after each caught failure.
		runner := &supervise.Runner{
			Spec: r.Supervise, Plan: r.Plan, Ring: r.Ring, Tracer: r.Tracer,
			Body: func(st *checkpoint.State, sup *supervise.Supervisor) (err error) {
				att, err = r.Execute(p, st, sup, r.Ring, describe)
				return err
			},
		}
		sup, err := runner.Run()
		if err != nil {
			return fatal(err)
		}
		sup.Finish(att.CB.Stats())
	} else {
		var st *checkpoint.State
		if r.Flags.Restore != "" {
			if st, err = checkpoint.ReadFile(r.Flags.Restore); err != nil {
				return fatal(err)
			}
		}
		if crash := supervise.CatchCrash(func() { att, err = r.Execute(p, st, nil, r.Ring, describe) }); crash != nil {
			r.ReportCrash(stderr, crash)
			return out, cmdutil.ExitCrash
		}
		if err != nil {
			return fatal(err)
		}
	}

	out = att.Outcome()
	if spec.App == "mgcfd" {
		fmt.Fprintf(stdout, "backend %s: %d iterations, density L1 residual %.6e\n", att.B.Name(), spec.Iters, out.Residual)
	} else {
		fmt.Fprintf(stdout, "backend %s: %s%d iterations complete\n", att.B.Name(), setup, spec.Iters)
	}
	cb := att.CB
	if cb == nil {
		if r.Flags.Trace != "" || r.Flags.Metrics != "" || r.Flags.ModelCheck || r.Flags.Profile || r.Plan != nil {
			fmt.Fprintf(stderr, "%s: -trace/-metrics/-model-check/-profile/-faults need a distributed backend (op2 or ca); ignored for seq\n", prog)
		}
		return out, 0
	}
	fmt.Fprintf(stdout, "virtual time (slowest rank): %.6fs over %d ranks\n", out.MaxClock, cb.NParts())
	r.PrintRunSummary(stdout, cb)
	if r.Flags.Profile {
		// Attach the analysis to Stats before any report renders; the
		// full report prints here unless -stats already includes it.
		if p := cb.Profile(); p != nil && !*stats {
			fmt.Fprint(stdout, p.Report())
		}
	}
	if *stats {
		fmt.Fprint(stdout, out.Stats.String())
	}
	if r.Spec.AutoTune && !*stats {
		fmt.Fprint(stdout, out.Stats.AutoTune.Report())
	}
	if r.Flags.ModelCheck {
		fmt.Fprint(stdout, cb.ModelReport())
	}
	if err := r.WriteObservability(stdout, cb); err != nil {
		return fatal(err)
	}
	if *verify {
		// Under hydra's published extensions a small boundary-local
		// deviation is expected, so the tolerance is part of the report.
		worst, tol := att.VerifyAgainstSeq()
		fmt.Fprintf(stdout, "verify: max relative difference vs sequential reference = %.3e", worst)
		if spec.App == "hydra" {
			fmt.Fprintf(stdout, " (tolerance %.0e)", tol)
		}
		fmt.Fprintln(stdout)
		if worst > tol {
			fmt.Fprintf(stdout, "verify: FAILED (difference exceeds %.0e)\n", tol)
			return out, cmdutil.ExitFatal
		}
		fmt.Fprintln(stdout, "verify: OK")
	}
	return out, 0
}
