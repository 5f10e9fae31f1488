package runspec

import (
	"runtime"
	"testing"
	"time"

	"op2ca/internal/checkpoint"
	"op2ca/internal/cluster"
	"op2ca/internal/core"
	"op2ca/internal/leakcheck"
)

// mapLayouts is the Layouts contract at its plainest: what is stored is what
// every later Load of the key returns.
type mapLayouts struct {
	kept          map[LayoutKey]*cluster.Layouts
	loads, stores int
}

func (m *mapLayouts) Load(k LayoutKey) *cluster.Layouts {
	m.loads++
	return m.kept[k]
}

func (m *mapLayouts) Store(k LayoutKey, l *cluster.Layouts) {
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
