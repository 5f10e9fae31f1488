package supervise_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"op2ca/internal/checkpoint"
	"op2ca/internal/cluster"
	"op2ca/internal/faults"
	"op2ca/internal/mesh"
	"op2ca/internal/mgcfd"
	"op2ca/internal/obs"
	"op2ca/internal/partition"
	"op2ca/internal/supervise"
)

const nparts = 3

// newHier builds the small deterministic MG-CFD workload the supervision
// tests run: two multigrid levels over a coarse rotor mesh.
func newHier() (*mesh.Hierarchy, partition.Assignment) {
	m := mesh.Rotor(6, 5, 4)
	return mesh.NewHierarchy(m, 2, true), partition.KWay(m.NodeAdjacency(), nparts)
}

func mkCfg(app *mgcfd.App, assign partition.Assignment, plan *faults.Plan, tracer *obs.Tracer) cluster.Config {
	return cluster.Config{
		Prog: app.Prog, Primary: app.Primary, Assign: assign, NParts: nparts,
		Depth: 2, MaxChainLen: 2, CA: true, Faults: plan, Tracer: tracer,
	}
}

// faultSeqOf snapshots b and reads back the exchange sequence counter — the
// coordinate system crash clauses are expressed in.
func faultSeqOf(t *testing.T, b *cluster.Backend) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := b.Checkpoint(&buf, "probe"); err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return st.FaultSeq
}

// TestSupervisedMultiCrashBitwiseOracle is the tentpole oracle: a supervised
// run through two injected crashes AND a corrupted newest checkpoint
// generation completes with dat checksums, virtual clocks and fault counters
// bitwise identical to the uninterrupted run.
func TestSupervisedMultiCrashBitwiseOracle(t *testing.T) {
	const iters = 6
	h, assign := newHier()

	// Uninterrupted reference, probing the exchange counter to place the
	// crash clauses: the first fires during iteration 2, the second during
	// iteration 4 of the resumed schedule.
	refApp := mgcfd.New(h)
	ref, err := cluster.New(mkCfg(refApp, assign, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	refApp.Init(ref)
	e0 := faultSeqOf(t, ref)
	for it := 0; it < iters; it++ {
		refApp.Cycle(ref)
		if it == 0 {
			e1 := faultSeqOf(t, ref)
			if e1 <= e0 {
				t.Fatalf("iteration produced no exchanges (seq %d -> %d)", e0, e1)
			}
		}
	}
	e1 := faultSeqOf(t, ref)
	perIter := (e1 - e0) / iters
	wantSum := ref.ChecksumDats()
	wantClock := ref.MaxClock()
	wantFaults := ref.Stats().Faults

	c1 := e0 + perIter + 2   // mid iteration 2
	c2 := e0 + 3*perIter + 2 // mid iteration 4
	plan := faults.MustParse(fmt.Sprintf("crash=rank0@%d,crash=rank1@%d,seed=2", c1, c2))

	dir := t.TempDir()
	ring, err := checkpoint.NewRing(checkpoint.Spec{Every: 1, Path: filepath.Join(dir, "ck.bin"), Keep: 3})
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.New()
	var final *cluster.Backend
	corrupted := false
	r := &supervise.Runner{
		Spec:   supervise.Spec{Enabled: true, Budget: 4, Backoff: 0.5},
		Plan:   plan,
		Ring:   ring,
		Tracer: tracer,
		Body: func(st *checkpoint.State, sup *supervise.Supervisor) error {
			app := mgcfd.New(h)
			cfg := mkCfg(app, assign, plan, tracer)
			var b *cluster.Backend
			start := 0
			if st == nil {
				var err error
				b, err = cluster.New(cfg)
				if err != nil {
					return err
				}
				sup.Adopt(b)
				app.Init(b)
			} else {
				var err error
				b, err = cluster.RestoreState(st, cfg)
				if err != nil {
					return err
				}
				sup.Adopt(b)
				if _, err := fmt.Sscanf(st.Note, "iter=%d", &start); err != nil {
					return fmt.Errorf("note %q: %w", st.Note, err)
				}
			}
			final = b
			for it := start; it < iters; it++ {
				app.Cycle(b)
				if _, err := ring.Write(func(w io.Writer) error {
					return b.Checkpoint(w, fmt.Sprintf("iter=%d", it+1))
				}); err != nil {
					return err
				}
			}
			return nil
		},
		BeforeRecover: func(failure error, restarts int) {
			// Chaos: after the first crash, truncate the newest generation
			// so recovery must quarantine it and fall back.
			if corrupted {
				return
			}
			corrupted = true
			gens := ring.Generations()
			if len(gens) == 0 {
				t.Fatal("no generation to corrupt after first crash")
			}
			info, err := os.Stat(gens[0].Path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(gens[0].Path, info.Size()-9); err != nil {
				t.Fatal(err)
			}
		},
	}
	sup, err := r.Run()
	if err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	if !corrupted {
		t.Fatal("first crash clause never fired")
	}

	if got := final.ChecksumDats(); got != wantSum {
		t.Errorf("checksums diverge: supervised %s, uninterrupted %s", got, wantSum)
	}
	if got := final.MaxClock(); got != wantClock {
		t.Errorf("virtual clock diverges: supervised %v, uninterrupted %v", got, wantClock)
	}
	if got := final.Stats().Faults; got != wantFaults {
		t.Errorf("FaultStats diverge: supervised %+v, uninterrupted %+v", got, wantFaults)
	}

	sup.Finish(final.Stats())
	sv := final.Stats().Supervise
	if !sv.Enabled || sv.Attempts != 3 || sv.Restarts != 2 || sv.CrashRestarts != 2 {
		t.Errorf("SuperviseStats = %+v, want 3 attempts, 2 crash restarts", sv)
	}
	if sv.Quarantined != 1 || sv.GenerationsTried != 2 || sv.ColdStarts != 2 {
		t.Errorf("ring recovery counters = %+v, want 1 quarantined, 2 tried, 2 cold starts", sv)
	}
	// Backoff ledger: 0.5*2^0 + 0.5*2^1 — charged off the clocks.
	if sv.BackoffVirtual != 1.5 {
		t.Errorf("BackoffVirtual = %g, want 1.5", sv.BackoffVirtual)
	}
	restartSpans := 0
	for _, sp := range tracer.Spans() {
		if sp.Kind == obs.Restart {
			restartSpans++
		}
	}
	if restartSpans != 2 {
		t.Errorf("%d restart spans in trace, want 2", restartSpans)
	}
	if s := final.Stats().String(); !bytes.Contains([]byte(s), []byte("supervise attempts 3")) {
		t.Errorf("Stats.String missing supervise line:\n%s", s)
	}
}

// TestBudgetExhaustionFailsLoudly: budget=0 means the first failure is
// final, reported as a typed *BudgetError wrapping the crash.
func TestBudgetExhaustionFailsLoudly(t *testing.T) {
	h, assign := newHier()
	plan := faults.MustParse("crash=rank0@4,seed=1")
	r := &supervise.Runner{
		Spec: supervise.Spec{Enabled: true, Budget: 0, Backoff: 1},
		Plan: plan,
		Body: func(st *checkpoint.State, sup *supervise.Supervisor) error {
			app := mgcfd.New(h)
			b, err := cluster.New(mkCfg(app, assign, plan, nil))
			if err != nil {
				return err
			}
			sup.Adopt(b)
			app.Init(b)
			for it := 0; it < 3; it++ {
				app.Cycle(b)
			}
			return nil
		},
	}
	_, err := r.Run()
	var be *supervise.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if be.Restarts != 0 {
		t.Errorf("Restarts = %d, want 0", be.Restarts)
	}
	var ce *faults.CrashError
	if !errors.As(err, &ce) || ce.Exchange != 4 {
		t.Errorf("BudgetError should unwrap to the crash: %v", err)
	}
}

// TestWatchdogEscalation: an absurdly tight no-progress deadline trips the
// watchdog; deterministic re-execution under a doubled deadline eventually
// passes, and the completed run is bitwise identical to an unsupervised one.
func TestWatchdogEscalation(t *testing.T) {
	const iters = 2
	h, assign := newHier()

	refApp := mgcfd.New(h)
	ref, err := cluster.New(mkCfg(refApp, assign, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	refApp.Init(ref)
	for it := 0; it < iters; it++ {
		refApp.Cycle(ref)
	}
	wantSum := ref.ChecksumDats()
	wantClock := ref.MaxClock()

	var final *cluster.Backend
	r := &supervise.Runner{
		Spec: supervise.Spec{Enabled: true, Budget: 60, Backoff: 0, Watchdog: 1e-9},
		Body: func(st *checkpoint.State, sup *supervise.Supervisor) error {
			app := mgcfd.New(h)
			b, err := cluster.New(mkCfg(app, assign, nil, nil))
			if err != nil {
				return err
			}
			sup.Adopt(b)
			app.Init(b)
			for it := 0; it < iters; it++ {
				app.Cycle(b)
			}
			final = b
			return nil
		},
	}
	sup, err := r.Run()
	if err != nil {
		t.Fatalf("watchdog escalation never completed: %v", err)
	}
	st := sup.Stats()
	if st.WatchdogTrips < 1 {
		t.Fatalf("watchdog never tripped: %+v", st)
	}
	if st.WatchdogTrips != st.Restarts {
		t.Errorf("trips %d != restarts %d; no other failure class should fire", st.WatchdogTrips, st.Restarts)
	}
	if got := final.ChecksumDats(); got != wantSum {
		t.Errorf("checksums diverge: supervised %s, unsupervised %s", got, wantSum)
	}
	if got := final.MaxClock(); got != wantClock {
		t.Errorf("virtual clock diverges: supervised %v, unsupervised %v", got, wantClock)
	}
	if sup.Watchdog() <= 1e-9 {
		t.Errorf("deadline never escalated: %g", sup.Watchdog())
	}
}

// TestHangErrorIsTyped pins the watchdog's failure shape: a typed
// *cluster.HangError panic that Catch converts and Supervisable accepts.
func TestHangErrorIsTyped(t *testing.T) {
	h, assign := newHier()
	app := mgcfd.New(h)
	b, err := cluster.New(mkCfg(app, assign, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	b.SetWatchdog(1e-12)
	caught := supervise.Catch(func() error {
		app.Init(b)
		app.Cycle(b)
		return nil
	})
	var he *cluster.HangError
	if !errors.As(caught, &he) {
		t.Fatalf("caught %v, want *cluster.HangError", caught)
	}
	if he.Deadline != 1e-12 || he.Clock <= he.Last {
		t.Errorf("HangError fields: %+v", he)
	}
	if !supervise.Supervisable(he) {
		t.Error("HangError must be supervisable")
	}
}

// TestCancelledErrorNotSupervisable: cooperative cancellation is deliberate,
// not a failure — a supervisor must never burn restart budget resuming a
// run its owner asked to stop. Catch hands the job service the
// *CancelledError; it implements preemption on top.
func TestCancelledErrorNotSupervisable(t *testing.T) {
	if supervise.Supervisable(&cluster.CancelledError{Exchange: 7}) {
		t.Error("CancelledError must not be supervisable")
	}
}

func TestParseSpec(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want supervise.Spec
	}{
		{"", supervise.Spec{}},
		{"on", supervise.Spec{Enabled: true, Budget: 8, Backoff: 1}},
		{"budget=3", supervise.Spec{Enabled: true, Budget: 3, Backoff: 1}},
		{"on,budget=0,backoff=2.5,watchdog=40", supervise.Spec{Enabled: true, Budget: 0, Backoff: 2.5, Watchdog: 40}},
	} {
		got, err := supervise.ParseSpec(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSpec(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{
		"off", "budget=-1", "backoff=x", "backoff=-1", "watchdog=0", "watchdog=-3", "bogus=1",
		"backoff=NaN", "watchdog=NaN", "backoff=Inf", "watchdog=Inf", // compare false against a bound, or never elapse
		"budget=1,budget=2",      // duplicate key
		"on,backoff=2,backoff=2", // duplicate, even with equal values
		"watchdog=5,watchdog=6",  // duplicate watchdog
	} {
		if _, err := supervise.ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	// String round-trips through ParseSpec.
	for _, s := range []supervise.Spec{
		{Enabled: true, Budget: 8, Backoff: 1},
		{Enabled: true, Budget: 2, Backoff: 0.5, Watchdog: 100},
	} {
		back, err := supervise.ParseSpec(s.String())
		if err != nil || back != s {
			t.Errorf("round trip %+v -> %q -> %+v, %v", s, s.String(), back, err)
		}
	}
}

// TestCatchPropagatesForeignPanics: only the typed failure panics are
// converted — a halo-depth dereference or a cancellation inside an attempt
// is a failure its owner reports (the job service: a failed or preempted
// job, not a panic that takes every other tenant's job down); anything
// else is a bug and must keep crashing the process.
func TestCatchPropagatesForeignPanics(t *testing.T) {
	for _, want := range []error{
		&cluster.HaloDepthError{Rank: 1, Loop: "flux", Iter: 7, Map: "e2n", Slot: 1},
		&cluster.CancelledError{Exchange: 7},
	} {
		if err := supervise.Catch(func() error { panic(want) }); err != want {
			t.Errorf("Catch returned %v, want the %T it recovered", err, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("foreign panic was swallowed")
		}
	}()
	supervise.Catch(func() error { panic("a genuine bug") })
}

// TestCatchCrash covers the shared helper behind the commands' exit-3
// path.
func TestCatchCrash(t *testing.T) {
	if c := supervise.CatchCrash(func() {}); c != nil {
		t.Errorf("clean body returned crash %+v", c)
	}
	want := &faults.CrashError{Rank: 2, Exchange: 9}
	if c := supervise.CatchCrash(func() { panic(want) }); c != want {
		t.Errorf("crash = %+v, want %+v", c, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("foreign panic was swallowed")
		}
	}()
	supervise.CatchCrash(func() { panic("boom") })
}
