// Command hydra runs the Hydra-proxy application: the six published
// loop-chains of the paper's Tables 3-4 (weight, period, gradl, vflux,
// iflux, jacob) inside a 5-stage Runge-Kutta time-marching skeleton, under
// the sequential reference, the standard distributed OP2 back-end, or the
// communication-avoiding back-end.
//
// By default the CA back-end runs the paper's configured halo extensions
// (the Section 3.4 configuration file); -safe lets the inspector choose
// conservative extensions instead, and -config loads a custom file.
//
// Usage:
//
//	hydra -mesh-nodes 60000 -ranks 16 -backend ca -iters 20 -stats
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"op2ca/internal/ca"
	"op2ca/internal/chaincfg"
	"op2ca/internal/checkpoint"
	"op2ca/internal/cluster"
	"op2ca/internal/cmdutil"
	"op2ca/internal/core"
	"op2ca/internal/hydra"
	"op2ca/internal/mesh"
	"op2ca/internal/supervise"
)

func main() {
	var (
		meshNodes   = flag.Int("mesh-nodes", 60000, "approximate node count")
		ranks       = flag.Int("ranks", 8, "simulated MPI ranks (ignored for -backend seq)")
		backendName = flag.String("backend", "ca", "backend: seq, op2 or ca")
		iters       = flag.Int("iters", 20, "time-marching iterations (the paper measures 20)")
		partName    = flag.String("partitioner", "rib", "partitioner: rib, rcb, kway or block")
		machName    = flag.String("machine", "archer2", "machine model: archer2, cirrus or laptop")
		cfgPath     = flag.String("config", "", "CA chain configuration file (default: built-in paper config)")
		safe        = flag.Bool("safe", false, "let the inspector pick conservative halo extensions")
		stats       = flag.Bool("stats", false, "print per-loop/per-chain statistics")
		serial      = flag.Bool("serial", false, "run simulated ranks on one host thread")
		overlap     = flag.Bool("overlap", false, "run CA chains on the overlap-capable task-graph executor (results are bit-identical; virtual time drops)")
		explain     = flag.Bool("explain", false, "print each chain's inspection plan and exit")
		verify      = flag.Bool("verify", false, "compare final state against the sequential reference")
		shared      cmdutil.RunFlags
	)
	shared.Register()
	flag.Parse()

	run, err := shared.Resolve("hydra", *backendName)
	if err != nil {
		fatal(err)
	}

	m := mesh.RotorForNodes(*meshNodes)
	app := hydra.New(m)

	if *explain {
		chains, _, err := chainSetup(*cfgPath, *safe)
		if err != nil {
			fatal(err)
		}
		for _, name := range hydra.ChainNames() {
			loops := app.ChainLoops(name)
			var over []int
			if cc := chains.Get(name); cc != nil {
				if over, err = cc.HEOverrides(len(loops)); err != nil {
					fatal(err)
				}
			}
			plan, err := ca.Inspect(name, loops, over)
			if err != nil {
				fmt.Printf("chain %s: %v\n", name, err)
				continue
			}
			fmt.Print(plan.Describe(loops))
		}
		return
	}
	fmt.Printf("mesh: %d nodes, %d edges, %d pedges, %d bnd, %d cbnd\n",
		m.NNodes, m.NEdges, m.NPedges, m.NBedges, m.NCbnd)

	var b core.Backend
	var cb *cluster.Backend
	// main owns the cluster backend (its worker pool, under -serial=false):
	// closed on return, and before a supervised retry replaces it.
	closeBackend := func() {
		if cb != nil {
			cb.Close()
		}
	}
	defer closeBackend()
	startIter := 0
	switch *backendName {
	case "seq":
		b = core.NewSeq()
	case "op2", "ca":
		mach, err := cmdutil.MachineByName(*machName)
		if err != nil {
			fatal(err)
		}
		assign, err := cmdutil.Assignment(m, *partName, *ranks)
		if err != nil {
			fatal(err)
		}
		chains, depth, err := chainSetup(*cfgPath, *safe)
		if err != nil {
			fatal(err)
		}
		ccfg := cluster.Config{
			Prog: app.Prog, Primary: app.Nodes, Assign: assign, NParts: *ranks,
			Depth: depth, MaxChainLen: 6, CA: *backendName == "ca",
			Chains: chains, Machine: mach, Parallel: !*serial, Tracer: run.Tracer, Faults: run.Plan,
			AutoTune: run.AutoTune, Overlap: *overlap,
		}
		if run.Supervise.Enabled {
			// Supervised self-healing execution: the supervisor owns the
			// whole construct/run loop, restoring from the newest valid
			// checkpoint generation after each caught failure.
			runner := &supervise.Runner{
				Spec: run.Supervise, Plan: run.Plan, Ring: run.Ring, Tracer: run.Tracer,
				Body: func(st *checkpoint.State, sup *supervise.Supervisor) error {
					start := 0
					var err error
					closeBackend()
					if st == nil {
						cb, err = cluster.New(ccfg)
					} else {
						cb, err = cluster.RestoreState(st, ccfg)
					}
					if err != nil {
						return err
					}
					sup.Adopt(cb)
					if st != nil {
						if start, err = cmdutil.ParseIterNote(st.Note); err != nil {
							return err
						}
					}
					b = cb
					return runIters(b, cb, app, start, *iters, *backendName == "ca", run.Ckpt, run.Ring)
				},
			}
			sup, err := runner.Run()
			if err != nil {
				fatal(err)
			}
			sup.Finish(cb.Stats())
			break
		}
		if run.Restore != "" {
			f, err := os.Open(run.Restore)
			if err != nil {
				fatal(err)
			}
			var note string
			cb, note, err = cluster.Restore(f, ccfg)
			f.Close()
			if err != nil {
				fatal(err)
			}
			if startIter, err = cmdutil.ParseIterNote(note); err != nil {
				fatal(err)
			}
			fmt.Printf("restored from %s: setup + %d iterations already complete\n", run.Restore, startIter)
		} else {
			cb, err = cluster.New(ccfg)
			if err != nil {
				fatal(err)
			}
		}
		b = cb
	default:
		fatal(fmt.Errorf("unknown backend %q", *backendName))
	}

	chained := *backendName == "ca"
	if !run.Supervise.Enabled {
		crash := supervise.CatchCrash(func() {
			if err := runIters(b, cb, app, startIter, *iters, chained, run.Ckpt, run.Ring); err != nil {
				fatal(err)
			}
		})
		if crash != nil {
			run.CrashExit(crash)
		}
	}
	fmt.Printf("backend %s: setup + %d iterations complete\n", b.Name(), *iters)
	if cb != nil {
		fmt.Printf("virtual time (slowest rank): %.6fs over %d ranks\n", cb.MaxClock(), cb.NParts())
		run.PrintRunSummary(cb)
		if run.Profile {
			// Attach the analysis to Stats before any report renders; the
			// full report prints here unless -stats already includes it.
			if p := cb.Profile(); p != nil && !*stats {
				fmt.Print(p.Report())
			}
		}
		if *stats {
			fmt.Print(cb.Stats().String())
		}
		if run.AutoTune && !*stats {
			fmt.Print(cb.Stats().AutoTune.Report())
		}
		if run.ModelCheck {
			fmt.Print(cb.ModelReport())
		}
		if err := run.WriteObservability(cb); err != nil {
			fatal(err)
		}
		if *verify {
			verifyAgainstSeq(cb, m, app, *iters, chained, *safe)
		}
	} else if run.Trace != "" || run.Metrics != "" || run.ModelCheck || run.Profile || run.Plan != nil {
		fmt.Fprintln(os.Stderr, "hydra: -trace/-metrics/-model-check/-profile/-faults need a distributed backend (op2 or ca); ignored for seq")
	}
}

// verifyAgainstSeq reruns the identical program sequentially and reports the
// worst relative difference of the primary state. Under the paper's
// configured halo extensions a small boundary-local deviation is expected
// (DESIGN.md 5b); safe mode must match to rounding.
func verifyAgainstSeq(cb *cluster.Backend, m *mesh.FV3D, app *hydra.App,
	iters int, chained, safe bool) {
	ref := hydra.New(m)
	seq := core.NewSeq()
	ref.RunSetup(seq, chained)
	for it := 0; it < iters; it++ {
		ref.RunIteration(seq, chained)
	}
	worst := 0.0
	for _, pair := range [][2]*core.Dat{{app.Qp, ref.Qp}, {app.Qo, ref.Qo}, {app.Res, ref.Res}} {
		got := cb.GatherDat(pair[0])
		want := pair[1].Data
		for i := range want {
			d := got[i] - want[i]
			if d < 0 {
				d = -d
			}
			den := want[i]
			if den < 0 {
				den = -den
			}
			if rel := d / (den + 1e-30); rel > worst {
				worst = rel
			}
		}
	}
	tol := 0.02 // published extensions perturb boundary values slightly
	if safe {
		tol = 1e-9
	}
	fmt.Printf("verify: max relative difference vs sequential reference = %.3e (tolerance %.0e)\n", worst, tol)
	if worst > tol {
		fmt.Println("verify: FAILED")
		os.Exit(1)
	}
	fmt.Println("verify: OK")
}

// chainSetup resolves the CA chain configuration and the halo depth the
// back-end must build.
func chainSetup(path string, safe bool) (*chaincfg.Config, int, error) {
	if safe {
		// No configured extensions: the inspector's conservative analysis
		// chooses; the weight/period chains need up to 5 shells.
		return nil, 5, nil
	}
	if path == "" {
		return hydra.MustPaperConfig(), 2, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	cfg, err := chaincfg.Parse(f)
	if err != nil {
		return nil, 0, err
	}
	// A custom file may pin deeper extensions; build generously.
	depth := 2
	for _, name := range cfg.Order {
		c := cfg.Chains[name]
		if c.MaxHE > depth {
			depth = c.MaxHE
		}
		for _, l := range c.Loops {
			if l.HE > depth {
				depth = l.HE
			}
		}
	}
	return cfg, depth, nil
}

// runIters drives the time-marching loop from iteration start: run setup on
// a fresh run, march, and snapshot through the checkpoint ring at the
// configured cadence.
func runIters(b core.Backend, cb *cluster.Backend, app *hydra.App,
	start, iters int, chained bool, ckpt checkpoint.Spec, ring *checkpoint.Ring) error {
	if start == 0 {
		app.RunSetup(b, chained)
	}
	for it := start; it < iters; it++ {
		app.RunIteration(b, chained)
		if ring != nil && ckpt.Enabled() && (it+1)%ckpt.Every == 0 {
			note := cmdutil.IterNote(it + 1)
			if _, err := ring.Write(func(w io.Writer) error {
				return cb.Checkpoint(w, note)
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

func fatal(err error) {
	cmdutil.Fatal("hydra", err)
}
