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
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"op2ca/internal/bench"
	"op2ca/internal/checkpoint"
	"op2ca/internal/cluster"
	"op2ca/internal/cmdutil"
	"op2ca/internal/faults"
	"op2ca/internal/obs"
	"op2ca/internal/supervise"
)

func main() {
	var (
		experiments = flag.String("experiment", "all",
			"comma-separated experiments: "+strings.Join(bench.ExperimentOrder(), ",")+" or all")
		quick       = flag.Bool("quick", false, "CI-sized configuration")
		nodes8m     = flag.Int("nodes8m", 0, "override scaled 8M-class mesh node count")
		nodes24m    = flag.Int("nodes24m", 0, "override scaled 24M-class mesh node count")
		rankScale   = flag.Float64("rankscale", 0, "override paper-nodes -> ranks scale factor")
		iters       = flag.Int("iters", 0, "override measured main-loop iterations")
		serial      = flag.Bool("serial", false, "run simulated ranks on one host thread")
		out         = flag.String("o", "", "also write results to this file")
		csv         = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonPath    = flag.String("json", "", "write machine-readable results to this JSON file")
		tracePath   = flag.String("trace", "", "write a Chrome trace-event JSON timeline of every run (one pid per backend)")
		metricsPath = flag.String("metrics", "", "write Prometheus text metrics for every run to this file (\"-\" for stdout)")
		modelCheck  = flag.Bool("model-check", false, "print Equation (1)/(3) predictions vs measured time after each run")
		profile     = flag.Bool("profile", false,
			"run the critical-path / communication-matrix analysis after each measured run (forces tracing; results stay bit-identical) and embed per-run summaries in the -json document")
		compare = flag.Bool("compare", false,
			"compare two -json snapshots given as positional arguments (old new); exits 1 on regression, 2 on usage error")
		thresholds = flag.String("thresholds", "",
			"per-table relative tolerances for -compare, e.g. default=2%,table2=5% (fractions or percentages; unlisted tables use default, which defaults to exact)")
		autoTune = flag.Bool("autotune", false,
			"let the model-driven autotuner pick each chain's execution policy in the CA runs (results stay bit-identical; ablations keep their pinned configurations)")
		overlap = flag.Bool("overlap", false,
			"run the CA back-ends on the overlap-capable task-graph chain executor (results stay bit-identical; the dedicated overlap experiment measures both modes regardless)")
		faultSpec = flag.String("faults", "",
			"deterministic fault-injection spec, e.g. drop=0.05,seed=1 (see internal/faults); results stay bit-identical, virtual times include recovery")
		ckptSpec = flag.String("checkpoint", "",
			"periodic snapshots, e.g. every=1,path=ck.bin,keep=3: each measured run checkpoints its backend after every N measured iterations, rotating keep=K verified generations")
		restorePath = flag.String("restore", "",
			"resume from a checkpoint file a crashed invocation wrote: the matching run restores mid-measurement, all others re-execute deterministically")
		superviseFlag = flag.String("supervise", "",
			"self-healing supervised execution, e.g. on or budget=8,backoff=1,watchdog=50: catch injected crashes, exchange failures and no-progress stalls, restore from the newest valid checkpoint generation and retry the experiment (incompatible with -restore)")
	)
	var prof cmdutil.ProfileFlags
	prof.Register(flag.CommandLine)
	flag.Parse()

	if *compare {
		os.Exit(runCompare(flag.Args(), *thresholds))
	}
	// Host profiles cover a run that completes; the fatal and crash exits
	// below leave them unfinished.
	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}

	var plan *faults.Plan
	if *faultSpec != "" {
		p, err := faults.Parse(*faultSpec)
		if err != nil {
			fatal(err)
		}
		plan = p
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
	if *serial {
		cfg.Parallel = false
	}
	if *tracePath != "" || *profile {
		cfg.Tracer = obs.New()
	}
	cfg.Faults = plan
	cfg.AutoTune = *autoTune
	cfg.Overlap = *overlap
	svSpec, err := supervise.ParseSpec(*superviseFlag)
	if err != nil {
		fatal(err)
	}
	if svSpec.Enabled && *restorePath != "" {
		fatal(fmt.Errorf("-supervise and -restore are incompatible: the supervisor recovers from the checkpoint ring itself"))
	}
	var ring *checkpoint.Ring
	if *ckptSpec != "" {
		spec, err := checkpoint.ParseSpec(*ckptSpec)
		if err != nil {
			fatal(err)
		}
		// Key the ring path by the workload fingerprint: resume-by-default
		// must never adopt a leftover ring from an invocation whose results
		// would differ (same labels, different mesh sizes or iteration
		// count). See Config.RingSpec.
		spec = cfg.RingSpec(spec)
		fmt.Fprintf(os.Stderr, "op2ca-bench: checkpoint ring %s\n", spec.Path)
		r, err := checkpoint.NewRing(spec)
		if err != nil {
			fatal(err)
		}
		ring = r
		cfg.CheckpointEvery = spec.Every
		cfg.Ring = ring
	}
	if *restorePath != "" {
		st, err := checkpoint.ReadFile(*restorePath)
		if err != nil {
			fatal(err)
		}
		cfg.Resume = st
	}
	var sup *supervise.Supervisor
	if svSpec.Enabled {
		sup = supervise.NewSupervisor(svSpec, plan, ring, cfg.Tracer)
	}

	// The metrics file accumulates every run under a distinct run label;
	// HELP/TYPE lines are deduplicated so the exposition stays valid.
	var metricsFile *os.File
	var mw *obs.MetricsWriter
	if *metricsPath != "" {
		w := os.Stdout
		if *metricsPath != "-" {
			f, err := os.Create(*metricsPath)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			metricsFile = f
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
	if *modelCheck || mw != nil || checksums != nil || plan != nil || *autoTune || *profile {
		cfg.Observe = func(label string, b *cluster.Backend) {
			if *profile {
				if p := b.Profile(); p != nil {
					// Self-check the tentpole invariant on every profiled
					// run: the critical path tiles the makespan exactly.
					mc := b.MaxClock()
					if math.Abs(p.Path.Length-mc) > 1e-9*math.Max(mc, 1) {
						fmt.Fprintf(os.Stderr,
							"op2ca-bench: %s: critical path %.9fs != makespan %.9fs\n",
							label, p.Path.Length, mc)
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
			if *modelCheck {
				fmt.Printf("-- %s --\n%s", label, b.ModelReport())
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

	var names []string
	if *experiments == "all" {
		names = bench.ExperimentOrder()
	} else {
		names = strings.Split(*experiments, ",")
	}
	registry := bench.Experiments()

	var sink *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		sink = f
	}
	emit := func(s string) {
		fmt.Print(s)
		if sink != nil {
			fmt.Fprint(sink, s)
		}
	}

	snap := bench.Snapshot{Nodes8M: cfg.Nodes8M, Nodes24M: cfg.Nodes24M,
		RankScale: cfg.RankScale, Iters: cfg.Iters}
	cfg.OverlapSink = func(r *bench.OverlapRecord) { snap.Overlap = r }
	emit(fmt.Sprintf("op2ca-bench: meshes %d/%d nodes, rank scale %g, %d iterations\n\n",
		cfg.Nodes8M, cfg.Nodes24M, cfg.RankScale, cfg.Iters))
	for _, name := range names {
		name = strings.TrimSpace(name)
		run, ok := registry[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "op2ca-bench: unknown experiment %q (have %s)\n",
				name, strings.Join(bench.ExperimentOrder(), ", "))
			os.Exit(1)
		}
		start := time.Now()
		var table *bench.Table
		if sup != nil {
			t, err := runSupervised(sup, run, &cfg, name)
			if err != nil {
				fatal(err)
			}
			table = t
		} else {
			// An injected crash fault (the crash=rankN@E grammar) is
			// reported with a pointer at the last checkpoint and a distinct
			// exit status, not as a panic trace.
			if crash := supervise.CatchCrash(func() { table = run(cfg) }); crash != nil {
				fmt.Fprintf(os.Stderr, "op2ca-bench: injected crash of rank %d at exchange %d during %q\n",
					crash.Rank, crash.Exchange, name)
				if ring != nil {
					if gens, err := ring.Generations(); err == nil && len(gens) > 0 {
						fmt.Fprintf(os.Stderr, "op2ca-bench: resume with -restore %s (drop the crash= clause), or rerun with -supervise on\n",
							gens[0].Path)
					}
				}
				os.Exit(3)
			}
		}
		elapsed := time.Since(start).Seconds()
		if *csv {
			emit(fmt.Sprintf("# %s\n%s\n", table.Title, table.CSV()))
		} else {
			emit(table.String())
			emit(fmt.Sprintf("(%s took %.1fs)\n\n", name, elapsed))
		}
		snap.Results = append(snap.Results, bench.Result{
			Name: name, Title: table.Title, Header: table.Header,
			Rows: table.Rows, Notes: table.Notes, Seconds: elapsed,
		})
	}

	if *profile {
		for _, p := range profiles {
			emit(fmt.Sprintf("profile %s: critpath %.6fs (makespan %.6fs), imbalance %.3f\n",
				p.Run, p.CritPath, p.Makespan, p.Imbalance))
		}
		if len(profiles) > 0 {
			emit("\n")
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
			emit(fmt.Sprintf("supervise: recovered from %d failures (crash %d exchange %d watchdog %d), %d generations quarantined, backoff %.3fs virtual\n\n",
				svStats.Restarts, svStats.CrashRestarts, svStats.ExchangeRestarts,
				svStats.WatchdogTrips, svStats.Quarantined, svStats.BackoffVirtual))
		}
	}
	if plan != nil {
		emit(fmt.Sprintf("faults: %s -> drops %d corrupts %d delays %d retries %d giveups %d fallback_ungrouped %d fallback_perloop %d\n\n",
			plan.String(), faultTotals.Drops, faultTotals.Corrupts, faultTotals.Delays,
			faultTotals.Retries, faultTotals.Giveups,
			faultTotals.FallbackUngrouped, faultTotals.FallbackPerLoop))
	}
	if mw != nil {
		if err := mw.Flush(); err != nil {
			fatal(err)
		}
		if metricsFile != nil {
			fmt.Printf("metrics: written to %s\n", *metricsPath)
		}
	}
	if *tracePath != "" {
		if err := cfg.Tracer.WriteChromeTraceFile(*tracePath); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %d spans written to %s (open in Perfetto or chrome://tracing)\n",
			cfg.Tracer.Len(), *tracePath)
	}
	if *jsonPath != "" {
		if plan != nil {
			snap.FaultSpec = plan.String()
		}
		snap.Faults = &bench.FaultTotals{
			Drops:             faultTotals.Drops,
			Corrupts:          faultTotals.Corrupts,
			Delays:            faultTotals.Delays,
			Retries:           faultTotals.Retries,
			Giveups:           faultTotals.Giveups,
			FallbackUngrouped: faultTotals.FallbackUngrouped,
			FallbackPerLoop:   faultTotals.FallbackPerLoop,
		}
		snap.Checksums = checksums
		snap.AutoTune = tuneRuns
		snap.Profiles = profiles
		if sup != nil {
			snap.Supervise = bench.NewSuperviseRecord(svStats)
		}
		if err := snap.WriteFile(*jsonPath); err != nil {
			fatal(err)
		}
		fmt.Printf("json: results written to %s\n", *jsonPath)
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
	if profileErrs > 0 {
		fmt.Fprintf(os.Stderr, "op2ca-bench: %d run(s) failed the critical-path == makespan self-check\n", profileErrs)
		os.Exit(4)
	}
}

// runCompare implements -compare old.json new.json: load both snapshots,
// diff them under the -thresholds spec, print the report and return the
// process exit code (0 ok, 1 regression, 2 usage/IO error).
func runCompare(args []string, spec string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "op2ca-bench: -compare needs exactly two snapshot paths: old.json new.json")
		return 2
	}
	th, err := bench.ParseThresholds(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "op2ca-bench:", err)
		return 2
	}
	oldS, err := bench.ReadSnapshot(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "op2ca-bench:", err)
		return 2
	}
	newS, err := bench.ReadSnapshot(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "op2ca-bench:", err)
		return 2
	}
	r := bench.CompareSnapshots(oldS, newS, th)
	fmt.Printf("compare %s -> %s\n%s", args[0], args[1], r)
	if !r.OK() {
		return 1
	}
	return 0
}

// runSupervised executes one experiment under the supervisor's retry loop:
// each attempt begins with a checkpoint-ring recovery scan (quarantining
// corrupt generations), carries the per-clause crash-arming mask and the
// escalating watchdog deadline into every backend the experiment builds, and
// a supervised failure charges the restart budget and retries. Runs whose
// label does not match the recovered snapshot re-execute deterministically,
// so the completed experiment's table is bitwise identical to an
// uninterrupted run's.
func runSupervised(sup *supervise.Supervisor, run func(bench.Config) *bench.Table,
	cfg *bench.Config, name string) (*bench.Table, error) {
	for {
		st, err := sup.Recover()
		if err != nil {
			return nil, err
		}
		cfg.Resume = st
		cfg.ArmedCrashes = sup.Armed()
		cfg.Watchdog = sup.Watchdog()
		var table *bench.Table
		err = supervise.Catch(func() error {
			table = run(*cfg)
			return nil
		})
		if err == nil {
			return table, nil
		}
		fmt.Fprintf(os.Stderr, "op2ca-bench: supervised failure during %q: %v\n", name, err)
		if ferr := sup.OnFailure(err); ferr != nil {
			return nil, ferr
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "op2ca-bench:", err)
	os.Exit(1)
}
