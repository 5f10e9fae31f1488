package runspec

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"op2ca/internal/checkpoint"
	"op2ca/internal/cluster"
	"op2ca/internal/core"
	"op2ca/internal/leakcheck"
	"op2ca/internal/partition"
)

// mapLayouts is the Layouts contract at its plainest: what is stored is what
// every later Load of the key returns.
type mapLayouts struct {
	mu            sync.Mutex
	kept          map[LayoutKey]*cluster.Layouts
	loads, stores int
}

func (m *mapLayouts) Load(k LayoutKey) *cluster.Layouts {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.loads++
	return m.kept[k]
}

func (m *mapLayouts) Store(k LayoutKey, l *cluster.Layouts) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stores++
	m.kept[k] = l
}

// TestOpenThroughLayouts: with a store, a run's first backend builds its
// layouts and leaves them under the run's LayoutKey; the other backend of the
// comparison (op2 after ca, the same key) and a restore from a snapshot are
// built on them; and every outcome is the one each backend reaches building
// its own.
func TestOpenThroughLayouts(t *testing.T) {
	defer leakcheck.Check(t)()
	for _, app := range []string{"mgcfd", "hydra"} {
		kept := &mapLayouts{kept: map[LayoutKey]*cluster.Layouts{}}
		outcome := func(backend string, store Layouts, ring *checkpoint.Ring, st *checkpoint.State) Outcome {
			t.Helper()
			s := small(app)
			s.Backend, s.CheckpointEvery = backend, 1
			r, err := s.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			r.Layouts = store
			p, err := r.NewProblem()
			if err != nil {
				t.Fatal(err)
			}
			a, err := r.BuildFrom(p, st)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			if err := a.Drive(ring); err != nil {
				t.Fatal(err)
			}
			return a.Outcome()
		}
		same := func(label string, got, want Outcome) {
			t.Helper()
			if got.Checksum != want.Checksum || got.Residual != want.Residual || got.MaxClock != want.MaxClock {
				t.Errorf("%s %s: (%s, %g, %g) through the store, (%s, %g, %g) building its own", app, label,
					got.Checksum, got.Residual, got.MaxClock, want.Checksum, want.Residual, want.MaxClock)
			}
		}
		ring, err := checkpoint.NewRing(checkpoint.Spec{Every: 1, Path: t.TempDir() + "/ck.bin", Keep: 2})
		if err != nil {
			t.Fatal(err)
		}
		same("ca", outcome("ca", kept, ring, nil), outcome("ca", nil, nil, nil))
		if kept.loads != 1 || kept.stores != 1 {
			t.Fatalf("%s: the first backend made %d loads and %d stores, want one each", app, kept.loads, kept.stores)
		}
		same("op2", outcome("op2", kept, nil, nil), outcome("op2", nil, nil, nil))
		st, _, _, _ := ring.RecoverNewest()
		if st == nil {
			t.Fatalf("%s: no generation to restore", app)
		}
		same("restored", outcome("ca", kept, nil, st), outcome("ca", nil, nil, nil))
		if kept.loads != 3 || kept.stores != 1 || len(kept.kept) != 1 {
			t.Errorf("%s: %d loads, %d stores, %d keys; want the op2 backend and the restore served from the one entry",
				app, kept.loads, kept.stores, len(kept.kept))
		}
		s := small(app)
		want := LayoutKey{AssignmentKey: AssignmentKey{MeshNodes: s.MeshNodes, Partitioner: map[string]string{"mgcfd": "kway", "hydra": "rib"}[app],
			Ranks: s.Ranks}, App: app, Levels: s.Levels, Depth: 2, MaxChainLen: map[string]int{"mgcfd": 4, "hydra": 6}[app]}
		if kept.kept[want] == nil {
			t.Errorf("%s: kept under %v, want %v", app, kept.kept, want)
		}
	}
}

// TestStoredLayoutsPinNoProgram: once a run's attempt is closed, its program
// — sets, maps, the dats' global arrays — is the collector's, although the
// layouts its backend was built on sit in the store.
func TestStoredLayoutsPinNoProgram(t *testing.T) {
	kept := &mapLayouts{kept: map[LayoutKey]*cluster.Layouts{}}
	collected := make(chan struct{})
	func() {
		r, err := small("hydra").Resolve()
		if err != nil {
			t.Fatal(err)
		}
		r.Layouts = kept
		p, err := r.NewProblem()
		if err != nil {
			t.Fatal(err)
		}
		a, err := r.BuildFrom(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(a.prog, func(*core.Program) { close(collected) })
		if err := a.Drive(nil); err != nil {
			t.Fatal(err)
		}
		a.Close()
	}()
	if len(kept.kept) != 1 {
		t.Fatalf("the store holds %d entries, want the attempt's layouts", len(kept.kept))
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(kept)
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("a closed attempt's program stays reachable while its layouts are stored")
		}
	}
}

// TestProblemKeepsItsLayouts: a Problem keeps the halo layouts its backends
// were built on. An OP2 attempt, a CA attempt and a restore from the CA
// attempt's ring on one Problem are built on one Layouts, looked up once in
// the run's store; attempts opened at once on a new Problem build it once; a
// copy of the Problem with a replaced Assign builds layouts of its own. Every
// attempt ends, and snapshots, bitwise as one on a Problem of its own does.
func TestProblemKeepsItsLayouts(t *testing.T) {
	defer leakcheck.Check(t)()
	for _, app := range []string{"mgcfd", "hydra"} {
		kept := &mapLayouts{kept: map[LayoutKey]*cluster.Layouts{}}
		var store Layouts = kept
		resolve := func(backend string) *Run {
			t.Helper()
			s := small(app)
			s.Backend, s.CheckpointEvery = backend, 1
			r, err := s.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			r.Layouts = store
			return r
		}
		problem := func() *Problem {
			t.Helper()
			r := resolve("ca")
			r.Layouts = nil
			p, err := r.NewProblem()
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		// run builds one attempt of backend over p from st, drives it, writing
		// generations to ring when one is given, and returns its outcome and a
		// snapshot of where it ended.
		type ended struct {
			out  Outcome
			snap []byte
		}
		run := func(backend string, p *Problem, ring *checkpoint.Ring, st *checkpoint.State) ended {
			t.Helper()
			r := resolve(backend)
			if p == nil {
				r.Layouts = nil
				var err error
				if p, err = r.NewProblem(); err != nil {
					t.Error(err)
					return ended{}
				}
			}
			a, err := r.BuildFrom(p, st)
			if err != nil {
				t.Error(err)
				return ended{}
			}
			defer a.Close()
			if err := a.Drive(ring); err != nil {
				t.Error(err)
			}
			var e ended
			e.out = a.Outcome()
			var buf bytes.Buffer
			if err := a.CB.Checkpoint(&buf, "end"); err != nil {
				t.Error(err)
			}
			e.snap = buf.Bytes()
			return e
		}
		same := func(leg string, got, want ended) {
			t.Helper()
			if got.out.Checksum != want.out.Checksum || got.out.Residual != want.out.Residual ||
				got.out.MaxClock != want.out.MaxClock || got.out.Exchanges != want.out.Exchanges {
				t.Errorf("%s %s: (%s, %g, %g, %d) on kept layouts, (%s, %g, %g, %d) on its own", app, leg,
					got.out.Checksum, got.out.Residual, got.out.MaxClock, got.out.Exchanges,
					want.out.Checksum, want.out.Residual, want.out.MaxClock, want.out.Exchanges)
			}
			if got.snap != nil && !bytes.Equal(got.snap, want.snap) {
				t.Errorf("%s %s: its snapshot differs from one of a backend on layouts of its own", app, leg)
			}
		}
		// only returns the one Layouts p keeps.
		only := func(leg string, p *Problem) *cluster.Layouts {
			t.Helper()
			if n := len(p.layouts.kept); n != 1 {
				t.Fatalf("%s %s: the Problem keeps %d layouts, want one", app, leg, n)
			}
			return p.layouts.kept[0].l
		}
		fresh := map[string]ended{"op2": run("op2", nil, nil, nil), "ca": run("ca", nil, nil, nil)}

		p := problem()
		same("op2", run("op2", p, nil, nil), fresh["op2"])
		lay := only("op2", p)
		newRing := func() *checkpoint.Ring {
			t.Helper()
			ring, err := checkpoint.NewRing(checkpoint.Spec{Every: 1, Path: t.TempDir() + "/ck.bin", Keep: 3})
			if err != nil {
				t.Fatal(err)
			}
			return ring
		}
		ring := newRing()
		same("ca", run("ca", p, ring, nil), run("ca", nil, newRing(), nil)) // both count their ring's writes
		gens := ring.Generations()
		st, err := checkpoint.ReadFile(gens[len(gens)-1].Path) // the oldest: iterations left to step
		if err != nil {
			t.Fatal(err)
		}
		restored := run("ca", p, nil, st)
		restored.snap = nil // it counts a restore
		same("restored", restored, fresh["ca"])
		if only("restored", p) != lay || kept.loads != 1 || kept.stores != 1 {
			t.Errorf("%s: the CA attempt and the restore made %d loads and %d stores, or built layouts of their own",
				app, kept.loads, kept.stores)
		}

		p = problem()
		got := make([]ended, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = run([]string{"op2", "ca"}[i%2], p, nil, nil)
			}()
		}
		wg.Wait()
		for i, e := range got {
			same("concurrent attempt "+[]string{"op2", "ca"}[i%2], e, fresh[[]string{"op2", "ca"}[i%2]])
		}
		if only("concurrent", p) != lay || kept.loads != 2 || kept.stores != 1 {
			t.Errorf("%s: four attempts at once on a new Problem made %d loads and %d stores in all, want 2 and 1",
				app, kept.loads, kept.stores)
		}

		// The partitioner ablation's copy: the Problem under an assignment no
		// LayoutKey names, so, as in the harness, on runs without a store.
		store = nil
		random := *p
		random.Assign = partition.Random(p.Mesh.NNodes, small(app).Ranks, 7)
		own := problem()
		own.Assign = random.Assign
		same("copy with a replaced Assign", run("ca", &random, nil, nil), run("ca", own, nil, nil))
		if len(p.layouts.kept) != 2 || p.layouts.kept[0].l != lay || p.layouts.kept[1].l == lay {
			t.Errorf("%s: the copy did not build layouts of its own beside the original's", app)
		}
		same("original after the copy", run("ca", p, nil, nil), fresh["ca"])
	}
}

// TestProblemReleasesItsLayouts: a run with a lender and no Layouts store
// builds its Problem's layouts, and the schedules its exchanges memoise, in
// borrowed storage. Release refuses while a backend on them is open; once the
// backend is closed it gives all of it back, so the lender has nothing out,
// and the released layouts refuse a second Release and any backend. The
// Problem then builds its layouts again, and its outcome is the one of a run
// that lends nothing. Layouts kept in a store are never lent.
func TestProblemReleasesItsLayouts(t *testing.T) {
	defer leakcheck.Check(t)()
	mustPanic := func(label string, f func(), check func(*cluster.ReleaseError) bool) {
		t.Helper()
		defer func() {
			if e, ok := recover().(*cluster.ReleaseError); !ok || !check(e) {
				t.Errorf("%s: recovered %v, want a fitting *cluster.ReleaseError", label, e)
			}
		}()
		f()
	}
	for _, app := range []string{"mgcfd", "hydra"} {
		s := small(app)
		s.Backend = "ca"
		r, err := s.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		// run drives an attempt on p and reads what a result is made of.
		run := func(p *Problem) (*Attempt, [3]any) {
			t.Helper()
			a, err := r.BuildOn(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Drive(nil); err != nil {
				t.Fatal(err)
			}
			o := a.Outcome()
			return a, [3]any{o.Checksum, o.Residual, o.MaxClock}
		}
		p, err := r.NewProblem()
		if err != nil {
			t.Fatal(err)
		}
		a, want := run(p)
		a.Close()

		lender := new(cluster.Lender)
		r.Slabs = lender
		if p, err = r.NewProblem(); err != nil {
			t.Fatal(err)
		}
		a, got := run(p)
		if got != want {
			t.Errorf("%s: lent outcome %v, want %v", app, got, want)
		}
		lay := p.layouts.kept[0].l
		mustPanic(app+": Release with a backend open", p.Release, func(e *cluster.ReleaseError) bool { return e.Open == 1 })
		a.Close()
		p.Release()
		if st := lender.Stats(); st.LentBytes != 0 {
			t.Errorf("%s: %d bytes still lent after Release", app, st.LentBytes)
		}
		mustPanic(app+": a second Release", lay.Release, func(e *cluster.ReleaseError) bool { return e.Released })
		cfg := cluster.Config{Prog: a.prog, Primary: a.primary, Assign: p.Assign, NParts: s.Ranks,
			Depth: r.Depth, MaxChainLen: a.maxChain, Layouts: lay}
		if b, err := cluster.New(cfg); err == nil {
			b.Close()
			t.Errorf("%s: a backend was built on released layouts", app)
		}
		p.Release() // nothing kept: does nothing

		again, got := run(p)
		if got != want {
			t.Errorf("%s: outcome after Release %v, want %v", app, got, want)
		}
		again.Close()
		p.Release()

		r.Layouts = &mapLayouts{kept: map[LayoutKey]*cluster.Layouts{}}
		p, err = r.NewProblem()
		if err != nil {
			t.Fatal(err)
		}
		stored, _ := run(p)
		before := lender.Stats().LentBytes
		stored.Close()
		if st := lender.Stats(); st.LentBytes != 0 || before == 0 {
			t.Errorf("%s: stored layouts: %d bytes lent with the backend open, %d after its Close; want only its dats lent", app, before, st.LentBytes)
		}
	}
}
