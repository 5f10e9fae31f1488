// Command mgcfd runs the MG-CFD mini-app (3-D unstructured multigrid
// finite-volume Euler solver) on a synthetic rotor mesh, optionally with
// the paper's synthetic loop-chains, under the sequential reference, the
// standard distributed OP2 back-end, or the communication-avoiding
// back-end.
//
// Usage:
//
//	mgcfd -mesh-nodes 100000 -ranks 16 -backend ca -nchains 8 -iters 10
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"op2ca/internal/checkpoint"
	"op2ca/internal/cluster"
	"op2ca/internal/cmdutil"
	"op2ca/internal/core"
	"op2ca/internal/mesh"
	"op2ca/internal/mgcfd"
	"op2ca/internal/supervise"
)

func main() {
	var (
		meshNodes   = flag.Int("mesh-nodes", 60000, "approximate finest-level node count")
		levels      = flag.Int("levels", 3, "multigrid levels")
		ranks       = flag.Int("ranks", 8, "simulated MPI ranks (ignored for -backend seq)")
		backendName = flag.String("backend", "ca", "backend: seq, op2 or ca")
		nchains     = flag.Int("nchains", 4, "synthetic chain pairs per iteration (0 disables)")
		iters       = flag.Int("iters", 10, "main-loop iterations")
		partName    = flag.String("partitioner", "kway", "partitioner: kway, rib, rcb or block")
		machName    = flag.String("machine", "archer2", "machine model: archer2, cirrus or laptop")
		stats       = flag.Bool("stats", false, "print per-loop/per-chain statistics")
		serial      = flag.Bool("serial", false, "run simulated ranks on one host thread")
		overlap     = flag.Bool("overlap", false, "run CA chains on the overlap-capable task-graph executor (results are bit-identical; virtual time drops)")
		verify      = flag.Bool("verify", false, "compare final state against the sequential reference")
		shared      cmdutil.RunFlags
	)
	shared.Register()
	flag.Parse()

	run, err := shared.Resolve("mgcfd", *backendName)
	if err != nil {
		fatal(err)
	}

	m := mesh.RotorForNodes(*meshNodes)
	h := mesh.NewHierarchy(m, *levels, true)
	app := mgcfd.New(h)
	syn := mgcfd.NewSynthetic(app)
	fmt.Printf("mesh: %d nodes, %d edges, %d multigrid levels\n",
		m.NNodes, m.NEdges, len(h.Levels))

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
		ccfg := cluster.Config{
			Prog: app.Prog, Primary: app.Primary, Assign: assign, NParts: *ranks,
			Depth: 2, MaxChainLen: 2 * maxInt(*nchains, 1), CA: *backendName == "ca",
			Machine: mach, Parallel: !*serial, Tracer: run.Tracer, Faults: run.Plan,
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
					return runIters(b, cb, app, syn, start, *iters, *nchains, *backendName == "ca", run.Ckpt, run.Ring)
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
			fmt.Printf("restored from %s: %d iterations already complete\n", run.Restore, startIter)
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

	if !run.Supervise.Enabled {
		crash := supervise.CatchCrash(func() {
			if err := runIters(b, cb, app, syn, startIter, *iters, *nchains, *backendName == "ca", run.Ckpt, run.Ring); err != nil {
				fatal(err)
			}
		})
		if crash != nil {
			run.CrashExit(crash)
		}
	}
	res := app.Residual(b)
	fmt.Printf("backend %s: %d iterations, density L1 residual %.6e\n", b.Name(), *iters, res)
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
			verifyAgainstSeq(cb, h, app, syn, *iters, *nchains, *backendName == "ca")
		}
	} else if run.Trace != "" || run.Metrics != "" || run.ModelCheck || run.Profile || run.Plan != nil {
		fmt.Fprintln(os.Stderr, "mgcfd: -trace/-metrics/-model-check/-profile/-faults need a distributed backend (op2 or ca); ignored for seq")
	}
}

// verifyAgainstSeq reruns the identical program sequentially and reports the
// worst relative difference of the finest-level state.
func verifyAgainstSeq(cb *cluster.Backend, h *mesh.Hierarchy, app *mgcfd.App,
	syn *mgcfd.Synthetic, iters, nchains int, chained bool) {
	ref := mgcfd.New(h)
	refSyn := mgcfd.NewSynthetic(ref)
	seq := core.NewSeq()
	ref.Init(seq)
	for it := 0; it < iters; it++ {
		if nchains > 0 {
			refSyn.Run(seq, nchains, chained)
		}
		ref.Cycle(seq)
	}
	got := cb.GatherDat(app.Levels[0].Vars)
	want := ref.Levels[0].Vars.Data
	worst := 0.0
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
	fmt.Printf("verify: max relative difference vs sequential reference = %.3e\n", worst)
	if worst > 1e-9 {
		fmt.Println("verify: FAILED (difference exceeds 1e-9)")
		os.Exit(1)
	}
	fmt.Println("verify: OK")
}

// runIters drives the main loop from iteration start: initialise on a fresh
// run, interleave synthetic chains with multigrid cycles, and snapshot
// through the checkpoint ring at the configured cadence.
func runIters(b core.Backend, cb *cluster.Backend, app *mgcfd.App, syn *mgcfd.Synthetic,
	start, iters, nchains int, chained bool, ckpt checkpoint.Spec, ring *checkpoint.Ring) error {
	if start == 0 {
		app.Init(b)
	}
	for it := start; it < iters; it++ {
		if nchains > 0 {
			syn.Run(b, nchains, chained)
		}
		app.Cycle(b)
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	cmdutil.Fatal("mgcfd", err)
}
