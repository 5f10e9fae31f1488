// Command op2ca-bench regenerates the tables and figures of the paper's
// evaluation section (Ekanayake et al., ICPP 2023). Each experiment runs
// both the standard OP2 back-end and the communication-avoiding back-end
// over scaled synthetic rotor meshes under the ARCHER2/Cirrus machine
// models, and prints a paper-style table.
//
// Usage:
//
//	op2ca-bench                         # all experiments, default scale
//	op2ca-bench -experiment fig10,table5
//	op2ca-bench -quick                  # CI-sized scale
//	op2ca-bench -nodes8m 120000 -rankscale 0.02 -iters 5
//	op2ca-bench -quick -profile -json results.json
//	op2ca-bench -compare -thresholds default=2% old.json new.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"op2ca/internal/bench"
	"op2ca/internal/checkpoint"
	"op2ca/internal/cluster"
	"op2ca/internal/cmdutil"
	"op2ca/internal/obs"
	"op2ca/internal/runspec"
	"op2ca/internal/supervise"
)

const prog = "op2ca-bench"

// exitSelfCheck reports a profiled run whose critical path does not tile
// its makespan.
const exitSelfCheck = 4

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, runs the experiments they
// select, prints tables and reports to stdout and diagnostics to stderr, and
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiments = fs.String("experiment", "all",
			"comma-separated experiments: "+strings.Join(bench.ExperimentOrder(), ",")+" or all")
		quick     = fs.Bool("quick", false, "CI-sized configuration")
		nodes8m   = fs.Int("nodes8m", 0, "override scaled 8M-class mesh node count")
		nodes24m  = fs.Int("nodes24m", 0, "override scaled 24M-class mesh node count")
		rankScale = fs.Float64("rankscale", 0, "override paper-nodes -> ranks scale factor")
		iters     = fs.Int("iters", 0, "override measured main-loop iterations")
		out       = fs.String("o", "", "also write results to this file")
		csv       = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonPath  = fs.String("json", "", "write machine-readable results to this JSON file (per-run checksums, autotune decisions and -profile summaries included)")
		compare   = fs.Bool("compare", false,
			"compare two -json snapshots given as positional arguments (old new); exits 1 on regression, 2 on usage error")
		thresholds = fs.String("thresholds", "",
			"per-table relative tolerances for -compare, e.g. default=2%,table2=5% (fractions or percentages; unlisted tables use default, which defaults to exact)")
		// The shared flags apply to every run the experiments make, except
		// that ablations and the overlap study keep their pinned knobs;
		// -checkpoint/-restore/-supervise work per measured run, and a
		// supervised failure retries the experiment it interrupted.
		shared cmdutil.RunFlags
		prof   cmdutil.ProfileFlags
	)
	shared.Register(fs)
	prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), *thresholds, stdout, stderr)
	}
	fatal := func(err error) int {
		fmt.Fprintf(stderr, "%s: %v\n", prog, err)
		return cmdutil.ExitFatal
	}
	// Scale flags that do not make a problem (a point with more ranks than
	// its scaled mesh has nodes) surface from inside an experiment as the
	// harness's typed panic: a usage error, like the same sizes given to
	// op2ca-run.
	defer func() {
		v := recover()
		if size, ok := v.(*runspec.SizeError); ok {
			fmt.Fprintf(stderr, "%s: %v\n", prog, size)
			code = 2
		} else if v != nil {
			panic(v)
		}
	}()
	stopProf, err := prof.Start()
	if err != nil {
		return fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil && code == 0 {
			code = fatal(err)
		}
	}()

	names := bench.ExperimentOrder()
	if *experiments != "all" {
		names = strings.Split(*experiments, ",")
	}
	registry := bench.Experiments()
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
		if registry[names[i]] == nil {
			return fatal(fmt.Errorf("unknown experiment %q (have %s)", names[i], strings.Join(bench.ExperimentOrder(), ", ")))
		}
	}

	r, err := shared.Fold(prog)
	if err != nil {
		return fatal(err)
	}
	cfg := bench.Default()
	if *quick {
		cfg = bench.Quick()
	}
	if *nodes8m > 0 {
		cfg.Nodes8M = *nodes8m
	}
	if *nodes24m > 0 {
		cfg.Nodes24M = *nodes24m
	}
	if *rankScale > 0 {
		cfg.RankScale = *rankScale
	}
	if *iters > 0 {
		cfg.Iters = *iters
	}
	// The ring lives at the path given: a generation another invocation left
	// there is continued only by a run whose restore accepts it (its
	// fingerprint and iteration count), which reproduces it bit for bit.
	cfg.Parallel, cfg.Tracer, cfg.Faults, cfg.Ring = r.Parallel, r.Tracer, r.Plan, r.Ring
	cfg.AutoTune, cfg.Overlap = shared.AutoTune, shared.Overlap
	var restored *bench.Resume // the snapshot -restore names: some run must adopt it
	if shared.Restore != "" {
		st, err := checkpoint.ReadFile(shared.Restore)
		if err != nil {
			return fatal(err)
		}
		restored = &bench.Resume{State: st}
		cfg.Resume = restored
	}

	// The metrics file accumulates every run under a distinct run label;
	// HELP/TYPE lines are deduplicated so the exposition stays valid.
	var mw *obs.MetricsWriter
	if shared.Metrics != "" {
		w := stdout
		if shared.Metrics != "-" {
			f, err := os.Create(shared.Metrics)
			if err != nil {
				return fatal(err)
			}
			defer f.Close()
			w = f
		}
		mw = obs.NewMetricsWriter(w)
	}
	// The Observe hook composes every per-run consumer: model checks,
	// metrics export, fault-counter aggregation, profiling and (for -json)
	// per-run dat checksums, so a faulted run can be diffed against a
	// fault-free one. Per-label consumers keep the last observation:
	// supervised retries re-execute runs deterministically, so counting a
	// re-executed run twice would inflate the totals.
	faultByLabel := map[string]cluster.FaultStats{}
	var checksums map[string]string
	var tuneRuns []bench.AutoTuneRun
	tuneIdx := map[string]int{}
	var profiles []bench.ProfileRecord
	profiled := map[string]bool{}
	profileErrs := 0
	if *jsonPath != "" {
		checksums = map[string]string{}
	}
	if shared.ModelCheck || mw != nil || checksums != nil || r.Plan != nil || shared.AutoTune || shared.Profile {
		cfg.Observe = func(label string, b *cluster.Backend) {
			if shared.Profile {
				if p := b.Profile(); p != nil {
					// Self-check the tentpole invariant on every profiled
					// run: the critical path tiles the makespan exactly.
					mc := b.MaxClock()
					if math.Abs(p.Path.Length-mc) > 1e-9*math.Max(mc, 1) {
						fmt.Fprintf(stderr, "%s: %s: critical path %.9fs != makespan %.9fs\n",
							prog, label, p.Path.Length, mc)
						profileErrs++
					}
					// Experiments reuse labels across tables (fig10 and
					// table2 measure the same configurations); identical
					// runs profile identically, so keep the first.
					if !profiled[label] {
						profiled[label] = true
						profiles = append(profiles, bench.NewProfileRecord(label, p))
					}
				}
			}
			if shared.ModelCheck {
				fmt.Fprintf(stdout, "-- %s --\n%s", label, b.ModelReport())
			}
			if mw != nil {
				b.Stats().WriteMetrics(mw, obs.Label{Key: "run", Value: label})
			}
			if checksums != nil {
				checksums[label] = b.ChecksumDats()
			}
			if at := b.Stats().AutoTune; at.Enabled && *jsonPath != "" {
				rec := bench.AutoTuneRun{Run: label, Calibration: at.Calib}
				for _, name := range at.Order {
					rec.Decisions = append(rec.Decisions, at.Decisions[name])
				}
				if len(at.Skipped) > 0 {
					rec.Skipped = at.Skipped
				}
				if i, ok := tuneIdx[label]; ok {
					tuneRuns[i] = rec
				} else {
					tuneIdx[label] = len(tuneRuns)
					tuneRuns = append(tuneRuns, rec)
				}
			}
			faultByLabel[label] = b.Stats().Faults
		}
	}

	results := stdout // tables and summaries, also to the -o file
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fatal(err)
		}
		defer f.Close()
		results = io.MultiWriter(stdout, f)
	}

	snap := bench.Snapshot{Nodes8M: cfg.Nodes8M, Nodes24M: cfg.Nodes24M,
		RankScale: cfg.RankScale, Iters: cfg.Iters}
	fmt.Fprintf(results, "%s: meshes %d/%d nodes, rank scale %g, %d iterations\n\n",
		prog, cfg.Nodes8M, cfg.Nodes24M, cfg.RankScale, cfg.Iters)
	// remaining runs the experiments not yet complete, in order. A failure
	// leaves the interrupted experiment first in line, its wall time still
	// counting.
	next, start := 0, time.Now()
	remaining := func() {
		for ; next < len(names); next++ {
			name := names[next]
			table := registry[name](cfg)
			elapsed := time.Since(start).Seconds()
			if *csv {
				fmt.Fprintf(results, "# %s\n%s\n", table.Title, table.CSV())
			} else {
				fmt.Fprint(results, table.String())
				fmt.Fprintf(results, "(%s took %.1fs)\n\n", name, elapsed)
			}
			snap.Results = append(snap.Results, bench.Result{
				Name: name, Title: table.Title, Header: table.Header,
				Rows: table.Rows, Notes: table.Notes, Seconds: elapsed,
			})
			start = time.Now()
		}
	}
	var sup *supervise.Supervisor
	if r.Supervise.Enabled {
		// One supervisor and one restart budget for the invocation: each
		// attempt begins with a checkpoint-ring recovery scan (quarantining
		// corrupt generations) and re-enters at the interrupted experiment.
		// Runs the recovered snapshot was not taken of re-execute
		// deterministically, so the completed tables are bitwise identical
		// to an uninterrupted invocation's.
		runner := &supervise.Runner{
			Spec: r.Supervise, Plan: r.Plan, Ring: r.Ring, Tracer: r.Tracer,
			Body: func(st *checkpoint.State, s *supervise.Supervisor) error {
				cfg.Sup, cfg.Resume = s, nil
				if st != nil {
					cfg.Resume = &bench.Resume{State: st}
				}
				remaining()
				return nil
			},
			BeforeRecover: func(failure error, _ int) {
				fmt.Fprintf(stderr, "%s: supervised failure during %q: %v\n", prog, names[next], failure)
			},
		}
		if sup, err = runner.Run(); err != nil {
			return fatal(err)
		}
	} else if crash := supervise.CatchCrash(remaining); crash != nil {
		// An injected crash fault (the crash=rankN@E grammar) is reported
		// with a pointer at the last checkpoint and a distinct exit status,
		// not as a panic trace.
		r.ReportCrash(stderr, crash)
		return cmdutil.ExitCrash
	}
	if r.Ring != nil {
		// The last generation commits behind the run that wrote it: the
		// invocation is not complete, nor its ring what it reports, before
		// that commit is.
		if err := r.Ring.Flush(); err != nil {
			return fatal(err)
		}
	}
	if restored != nil && restored.Adopted == 0 {
		return fatal(fmt.Errorf("-restore %s: the snapshot belongs to run %q, which this invocation did not execute as it was taken (another -experiment, scale, -iters or fault plan?); nothing was restored",
			shared.Restore, restored.Label()))
	}

	if shared.Profile {
		for _, p := range profiles {
			fmt.Fprintf(results, "profile %s: critpath %.6fs (makespan %.6fs), imbalance %.3f\n",
				p.Run, p.CritPath, p.Makespan, p.Imbalance)
		}
		if len(profiles) > 0 {
			fmt.Fprintln(results)
		}
	}
	var faultTotals cluster.FaultStats
	for _, fs := range faultByLabel {
		faultTotals.Add(fs)
	}
	var svStats cluster.SuperviseStats
	if sup != nil {
		sup.Finish(nil)
		svStats = sup.Stats()
		if svStats.Restarts > 0 {
			fmt.Fprintf(results, "supervise: recovered from %d failures (crash %d exchange %d watchdog %d), %d generations quarantined, backoff %.3fs virtual\n\n",
				svStats.Restarts, svStats.CrashRestarts, svStats.ExchangeRestarts,
				svStats.WatchdogTrips, svStats.Quarantined, svStats.BackoffVirtual)
		}
	}
	if r.Plan != nil {
		fmt.Fprintf(results, "faults: %s -> %s\n\n", r.Plan, faultTotals)
	}
	if mw != nil {
		if err := mw.Flush(); err != nil {
			return fatal(err)
		}
		if shared.Metrics != "-" {
			fmt.Fprintf(stdout, "metrics: written to %s\n", shared.Metrics)
		}
	}
	if err := r.WriteTrace(stdout); err != nil {
		return fatal(err)
	}
	if *jsonPath != "" {
		if r.Plan != nil {
			snap.FaultSpec = r.Plan.String()
		}
		snap.Faults = &faultTotals
		snap.Checksums = checksums
		snap.AutoTune = tuneRuns
		snap.Profiles = profiles
		if sup != nil {
			snap.Supervise = &svStats
		}
		if err := snap.WriteFile(*jsonPath); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "json: results written to %s\n", *jsonPath)
	}
	if profileErrs > 0 {
		fmt.Fprintf(stderr, "%s: %d run(s) failed the critical-path == makespan self-check\n", prog, profileErrs)
		return exitSelfCheck
	}
	return 0
}

// runCompare implements -compare old.json new.json: load both snapshots,
// diff them under the -thresholds spec, print the report and return the
// process exit code (0 ok, 1 regression, 2 usage/IO error).
func runCompare(args []string, spec string, stdout, stderr io.Writer) int {
	usage := func(err error) int {
		fmt.Fprintf(stderr, "%s: %v\n", prog, err)
		return 2
	}
	if len(args) != 2 {
		return usage(errors.New("-compare needs exactly two snapshot paths: old.json new.json"))
	}
	th, err := bench.ParseThresholds(spec)
	if err != nil {
		return usage(err)
	}
	oldS, err := bench.ReadSnapshot(args[0])
	if err != nil {
		return usage(err)
	}
	newS, err := bench.ReadSnapshot(args[1])
	if err != nil {
		return usage(err)
	}
	r := bench.CompareSnapshots(oldS, newS, th)
	fmt.Fprintf(stdout, "compare %s -> %s\n%s", args[0], args[1], r)
	if !r.OK() {
		return 1
	}
	return 0
}
