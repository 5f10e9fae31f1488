package service

import (
	"io"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"op2ca/internal/checkpoint"
	"op2ca/internal/cluster"
	"op2ca/internal/leakcheck"
	"op2ca/internal/runspec"
)

// poisonLender stands in front of a service's Lender: every slab goes out to
// a job NaN-filled, a new one too, and comes back NaN-filled, so a backend
// that read borrowed memory before writing it — or anything that read a
// backend's dats after its Close — would carry a NaN into a Result. It counts
// what went out and what came back.
type poisonLender struct {
	*cluster.Lender
	gets, puts atomic.Int64
}

func poison(s []float64) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = math.NaN()
	}
}

func (p *poisonLender) Get(n int) []float64 {
	s := p.Lender.Get(n)
	if cap(s) > 0 {
		p.gets.Add(1)
	}
	poison(s)
	return s
}

func (p *poisonLender) Put(s []float64) {
	if cap(s) > 0 {
		p.puts.Add(1)
	}
	poison(s)
	p.Lender.Put(s)
}

// poisoned starts a service whose jobs borrow from a poisonLender.
func poisoned(t *testing.T, cfg Config) (*Service, *poisonLender) {
	t.Helper()
	cfg.DataDir = t.TempDir()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lender := &poisonLender{Lender: new(cluster.Lender)}
	svc.slabs = lender
	return svc, lender
}

// servedCycle is serve-mixed's cycle in shape: the eight templates twice
// over, the second time with two CA jobs overlapped, two jobs under a
// message-drop plan and one with a crash clause.
func servedCycle() []JobSpec {
	second := servedTemplates()
	second[2].Overlap, second[7].Overlap = true, true
	second[0].Faults = "crash=rank0@37"
	second[5].Faults, second[6].Faults = "drop=0.02,seed=11", "drop=0.02,seed=12"
	return append(servedTemplates(), second...)
}

// TestSlabsInvisibleInResults: the served cycle twice over, its 32 jobs
// submitted at once to a two-worker service whose lender poisons (the race
// job runs this). Every job — crash-clause and drop-plan jobs included —
// answers, field for field, what RunDirect answers, which borrows nothing;
// every slab lent came back; and jobs after the first few ran on recycled
// memory.
func TestSlabsInvisibleInResults(t *testing.T) {
	defer leakcheck.Check(t)()
	svc, lender := poisoned(t, Config{Workers: 2, QueueCap: 32})
	defer svc.Close()
	cycle := servedCycle()
	ids := make([]string, 2*len(cycle))
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := svc.Submit(cycle[i%len(cycle)])
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = v.ID
		}()
	}
	wg.Wait()
	svc.Drain()
	for k, spec := range cycle {
		direct, err := RunDirect(spec, "")
		if err != nil {
			t.Fatal(err)
		}
		want := outcomeJSON(t, direct)
		for i := k; i < len(ids); i += len(cycle) {
			r, err := svc.Result(ids[i])
			if err != nil {
				t.Fatalf("job %s (%s/%s/%d ranks, faults %q): %v", ids[i], spec.App, spec.Backend, spec.Ranks, spec.Faults, err)
			}
			if got := outcomeJSON(t, r); got != want {
				t.Errorf("job %s (%s/%s/%d ranks, faults %q):\n   got %s\ndirect %s",
					ids[i], spec.App, spec.Backend, spec.Ranks, spec.Faults, got, want)
			}
		}
	}
	st := lender.Stats()
	if g, p := lender.gets.Load(), lender.puts.Load(); g != p || st.LentBytes != 0 || st.Hits+st.Misses < int64(len(ids)) {
		t.Errorf("%d slabs lent, %d returned, %d bytes still out (%+v); want every job's one back", g, p, st.LentBytes, st)
	}
	if !raceEnabled && st.Hits < st.Misses {
		t.Errorf("%d hits, %d misses: most jobs of a busy service run on recycled slabs", st.Hits, st.Misses)
	}
}

// TestSlabsReturnedOnEveryExit: however an attempt ends — done, cancelled
// mid-run, preempted mid-run, crashed and restarted, crashed with no budget
// left, stopped by the watchdog — what its backend borrowed is back with the
// lender, once.
func TestSlabsReturnedOnEveryExit(t *testing.T) {
	defer leakcheck.Check(t)()
	svc, lender := poisoned(t, Config{Workers: 2, QueueCap: 8})
	defer svc.Close()
	submit := func(spec JobSpec) string {
		t.Helper()
		v, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return v.ID
	}
	// running submits a job long enough to be caught mid-run and returns once
	// its backend has borrowed its storage.
	running := func() string {
		t.Helper()
		before := lender.gets.Load()
		id := submit(JobSpec{Tenant: "acme", App: "mgcfd", MeshNodes: 6000, Ranks: 3, Iters: 200, NChains: 2, Machine: "laptop"})
		for deadline := time.Now().Add(time.Minute); lender.gets.Load() == before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("job %s never built a backend", id)
			}
		}
		return id
	}
	small := JobSpec{Tenant: "acme", App: "mgcfd", MeshNodes: 800, Ranks: 3, Iters: 4, NChains: 2, Machine: "laptop"}
	want := map[string]State{}

	cancelled := running()
	if _, err := svc.Cancel(cancelled); err != nil {
		t.Fatal(err)
	}
	want[cancelled] = StateCancelled
	svc.Drain()

	preempted := running()
	if _, err := svc.Preempt(preempted); err != nil {
		t.Fatal(err)
	}
	for v, _ := svc.Get(preempted); v.Preemptions == 0; v, _ = svc.Get(preempted) {
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.Cancel(preempted); err != nil { // 200 iterations are not the point
		t.Fatal(err)
	}
	want[preempted] = StateCancelled

	want[submit(small)] = StateDone
	restarted := small
	restarted.Faults = "crash=rank0@40,seed=1"
	want[submit(restarted)] = StateDone
	failed := restarted
	failed.Supervise = "budget=0"
	want[submit(failed)] = StateFailed
	hung := small
	hung.Supervise = "watchdog=1e-9,budget=1"
	want[submit(hung)] = StateFailed
	svc.Drain()

	restarts := 0
	for id, state := range want {
		v, err := svc.Get(id)
		if err != nil || v.State != state {
			t.Errorf("job %s ended %s (%s), want %s", id, v.State, v.Error, state)
		}
		restarts += v.Restarts
	}
	if v, _ := svc.Get(preempted); v.Preemptions < 1 {
		t.Errorf("job %s was not preempted", preempted)
	}
	if restarts < 2 {
		t.Errorf("%d supervised restarts, want the crash job's and the watchdog job's", restarts)
	}
	if g, p := lender.gets.Load(), lender.puts.Load(); g != p || g == 0 || lender.Stats().LentBytes != 0 {
		t.Errorf("%d slabs lent, %d returned, %d bytes still out", g, p, lender.Stats().LentBytes)
	}
}

// TestCloseEmptiesTheLender: Close lets go of the free slabs, whichever P's
// pool slot holds them.
func TestCloseEmptiesTheLender(t *testing.T) {
	defer leakcheck.Check(t)()
	svc, err := New(Config{Workers: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range servedTemplates()[:4] {
		if _, err := svc.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	svc.Drain()
	svc.slabs.Put(svc.slabs.Get(1 << 10)) // whatever the collector took meanwhile
	svc.Close()
	before := svc.slabs.Stats()
	if s := svc.slabs.Get(1); cap(s) != 1 || svc.slabs.Stats().Misses != before.Misses+1 {
		t.Errorf("a closed service's lender lent a slab of %d values", cap(s))
	}
	if before.LentBytes != 0 || (!raceEnabled && before.Hits == 0) {
		t.Errorf("lender at Close: %+v", before)
	}
}

// BenchmarkJobBackend builds and closes the backend of the served Hydra
// template (4 200 nodes, 8 ranks, CA) on the job's Problem, as every attempt
// does: with its storage made fresh; borrowed from a lender the previous
// iteration's Close returned it to; borrowed, on layouts from a store the
// first build left them in; and all that over the app the Problem took from
// an instance store, declared once. B/op is what a served job stops
// allocating.
func BenchmarkJobBackend(b *testing.B) {
	for _, mode := range []string{"fresh", "lent", "stored", "shared"} {
		b.Run(mode, func(b *testing.B) {
			w, err := JobSpec{Tenant: "acme", App: "hydra", MeshNodes: 4200, Ranks: 8}.Validate()
			if err != nil {
				b.Fatal(err)
			}
			if mode != "fresh" {
				w.run.Slabs = new(cluster.Lender)
			}
			if mode == "stored" || mode == "shared" {
				w.run.Layouts = new(layoutStore)
			}
			if mode == "shared" {
				w.run.Instances = new(instanceStore)
			}
			p, err := w.run.NewProblem()
			if err != nil {
				b.Fatal(err)
			}
			build := func() *runspec.Attempt {
				a, err := w.run.BuildOn(p, nil)
				if err != nil {
					b.Fatal(err)
				}
				return a
			}
			build().Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				build().Close()
			}
		})
	}
}

// BenchmarkRestore restores the served Hydra template's backend (4 200 nodes,
// 8 ranks, CA) from its ring's generation on the job's Problem, as a served
// restart does — lent slabs, stored layouts, a stored instance — with the
// snapshot decoded whole first (checkpoint.ReadFile) and recovered without
// its dats, which then stream into the backend (Ring.RecoverNewest): B/op is
// what a restart stops allocating.
func BenchmarkRestore(b *testing.B) {
	w, err := JobSpec{Tenant: "acme", App: "hydra", MeshNodes: 4200, Ranks: 8}.Validate()
	if err != nil {
		b.Fatal(err)
	}
	w.run.Slabs, w.run.Layouts, w.run.Instances = new(cluster.Lender), new(layoutStore), new(instanceStore)
	p, err := w.run.NewProblem()
	if err != nil {
		b.Fatal(err)
	}
	ring, err := checkpoint.NewRing(checkpoint.Spec{Every: 1, Path: filepath.Join(b.TempDir(), "ck"), Keep: 1})
	if err != nil {
		b.Fatal(err)
	}
	a, err := w.run.BuildOn(p, nil)
	if err != nil {
		b.Fatal(err)
	}
	a.Init()
	a.Step()
	_, err = ring.Write(func(w io.Writer) error { return a.CB.Checkpoint(w, runspec.IterNote(1)) })
	a.Close()
	if err == nil {
		err = ring.Flush()
	}
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"decoded", "in-place"} {
		b.Run(mode, func(b *testing.B) {
			restore := func() {
				st, gen, _, _ := ring.RecoverNewest()
				if mode == "decoded" && st != nil {
					st, err = checkpoint.ReadFile(gen.Path)
				}
				if st == nil || err != nil {
					b.Fatalf("no snapshot to restore: %v", err)
				}
				a, err := w.run.BuildOn(p, st)
				if err != nil {
					b.Fatal(err)
				}
				a.Close()
			}
			restore()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				restore()
			}
		})
	}
}
