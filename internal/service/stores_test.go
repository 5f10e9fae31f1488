package service

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"op2ca/internal/leakcheck"
	"op2ca/internal/runspec"
)

// pinLayouts keeps what a store holds where the next lookup finds it: no
// collection, so that none is evicted between jobs. (Whichever P's pool slot
// holds a value, and under the race detector too, where the pool drops a
// quarter of what is put back, the store's weak pointers reach it.) It
// returns the undo.
func pinLayouts() func() {
	gc := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(gc) }
}

// TestLayoutStoreInvisibleInResults: the eight served templates warm the
// layout and instance stores, then the served cycle — the templates again, CA
// jobs overlapped, drop-plan jobs, a crash-clause job and its restart — runs on
// them without a miss, and every job answers, field for field, what RunDirect
// answers, which builds its own layouts and declares its own app.
func TestLayoutStoreInvisibleInResults(t *testing.T) {
	defer leakcheck.Check(t)()
	svc, err := New(Config{Workers: 2, QueueCap: 16, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	submit := func(specs []JobSpec) []string {
		t.Helper()
		var ids []string
		for _, spec := range specs {
			v, err := svc.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, v.ID)
		}
		svc.Drain()
		return ids
	}
	unpin := pinLayouts()
	submit(servedTemplates())
	hits, misses := svc.layouts.Stats()
	ihits, imisses := svc.instances.Stats()
	cycle := servedCycle()
	ids := submit(cycle)
	unpin()
	attempts := 0
	for _, id := range ids {
		v, _ := svc.Get(id)
		attempts += v.Attempts
	}
	if attempts <= len(cycle) {
		t.Errorf("%d attempts over %d jobs: the cycle's crash job did not restart", attempts, len(cycle))
	}
	// Layouts and an instance are looked up once a job, by the attempt that
	// builds its Problem; the restart is built on that Problem, which keeps
	// both.
	if h, m := svc.layouts.Stats(); m != misses || h != hits+len(cycle) {
		t.Errorf("warm store: %d hits, %d misses over %d jobs; want every job served (before: %d, %d)",
			h-hits, m-misses, len(cycle), hits, misses)
	}
	if h, m := svc.instances.Stats(); m != imisses || h != ihits+len(cycle) {
		t.Errorf("warm instance store: %d hits, %d misses over %d jobs; want every job served (before: %d, %d)",
			h-ihits, m-imisses, len(cycle), ihits, imisses)
	}
	for i, spec := range cycle {
		direct, err := RunDirect(spec, "")
		if err != nil {
			t.Fatal(err)
		}
		r, err := svc.Result(ids[i])
		if err != nil {
			t.Fatalf("job %s (%s/%s/%d ranks, faults %q): %v", ids[i], spec.App, spec.Backend, spec.Ranks, spec.Faults, err)
		}
		if got, want := outcomeJSON(t, r), outcomeJSON(t, direct); got != want {
			t.Errorf("job %s (%s/%s/%d ranks, overlap %v, faults %q):\n  warm %s\ndirect %s",
				ids[i], spec.App, spec.Backend, spec.Ranks, spec.Overlap, spec.Faults, got, want)
		}
	}
}

// TestRestartServedFromTheStore: a crash-clause job builds its layouts once,
// on its first attempt; the supervised restart, a restore from the job's
// ring, is built on the job's Problem, so on the layouts and the instance its
// first attempt left there, without looking either up.
func TestRestartServedFromTheStore(t *testing.T) {
	defer pinLayouts()()
	defer leakcheck.Check(t)()
	svc, err := New(Config{Workers: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	v, err := svc.Submit(JobSpec{Tenant: "acme", App: "mgcfd", MeshNodes: 800, Ranks: 3, Iters: 4, NChains: 2,
		Machine: "laptop", Faults: "crash=rank0@40,seed=1"})
	if err != nil {
		t.Fatal(err)
	}
	svc.Drain()
	if v, _ = svc.Get(v.ID); v.State != StateDone || v.Restarts < 1 {
		t.Fatalf("crash job ended %s after %d restarts; want done after at least one", v.State, v.Restarts)
	}
	if hits, misses := svc.layouts.Stats(); misses != 1 || hits != 0 {
		t.Errorf("%d attempts made %d hits and %d misses; want the first attempt's miss alone", v.Attempts, hits, misses)
	}
	if hits, misses := svc.instances.Stats(); misses != 1 || hits != 0 {
		t.Errorf("%d attempts made %d instance hits and %d misses; want the first attempt's miss alone", v.Attempts, hits, misses)
	}
}

// TestLayoutStoreConcurrentJobs (run under -race): eight jobs of one key
// submitted at once to two workers run concurrently on layouts and an
// instance from the stores, every result RunDirect's; with no collection, all
// but the first job share the first's layouts and instance, on whichever P
// they run.
func TestLayoutStoreConcurrentJobs(t *testing.T) {
	defer leakcheck.Check(t)()
	svc, err := New(Config{Workers: 2, QueueCap: 8, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	spec := JobSpec{Tenant: "acme", App: "hydra", MeshNodes: 800, Ranks: 4, Iters: 2, Machine: "laptop"}
	unpin := pinLayouts()
	if _, err := svc.Submit(spec); err != nil {
		t.Fatal(err)
	}
	svc.Drain()
	ids := make([]string, 8)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := svc.Submit(spec)
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = v.ID
		}()
	}
	wg.Wait()
	svc.Drain()
	unpin()
	if hits, misses := svc.layouts.Stats(); misses != 1 || hits != len(ids) {
		t.Errorf("%d hits, %d misses; want one miss and %d hits", hits, misses, len(ids))
	}
	if hits, misses := svc.instances.Stats(); misses != 1 || hits != len(ids) {
		t.Errorf("instances: %d hits, %d misses; want one miss and %d hits", hits, misses, len(ids))
	}
	direct, err := RunDirect(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	want := outcomeJSON(t, direct)
	for _, id := range ids {
		r, err := svc.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := outcomeJSON(t, r); got != want {
			t.Errorf("job %s:\n   got %s\ndirect %s", id, got, want)
		}
	}
}

// TestIdleServiceHoldsNoLayout: the layouts and instances the stores keep are
// the collector's while nobody builds on them — after Drain and two
// collections they hold none — and Close lets go of every key.
func TestIdleServiceHoldsNoLayout(t *testing.T) {
	defer leakcheck.Check(t)()
	svc, err := New(Config{Workers: 2, QueueCap: 8, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range servedTemplates()[:4] {
		spec.MeshNodes = 800
		if _, err := svc.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	svc.Drain()
	if hits, misses := svc.layouts.Stats(); hits+misses != 4 || misses == 0 {
		t.Fatalf("%d hits, %d misses over four jobs", hits, misses)
	}
	runtime.GC()
	runtime.GC()
	if _, n := svc.layouts.Held(); n != 0 {
		t.Errorf("the idle service's store holds %d layouts after two collections", n)
	}
	if hits, misses := svc.instances.Stats(); hits+misses != 4 || misses == 0 {
		t.Fatalf("%d instance hits, %d misses over four jobs", hits, misses)
	}
	if _, n := svc.instances.Held(); n != 0 {
		t.Errorf("the idle service's store holds %d instances after two collections", n)
	}
	svc.Close()
	n, _ := svc.layouts.Held()
	if m, _ := svc.instances.Held(); n+m != 0 {
		t.Errorf("a closed service's stores still track %d layout and %d instance keys", n, m)
	}
}

// keptInstances is runspec.Instances without a collector or per-P slots:
// what is stored is what every later Load returns, under -race too.
type keptInstances struct {
	mu   sync.Mutex
	kept map[runspec.InstanceKey]*runspec.Instance
}

func (k *keptInstances) Load(key runspec.InstanceKey) *runspec.Instance {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.kept[key]
}

func (k *keptInstances) Store(key runspec.InstanceKey, in *runspec.Instance) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.kept[key] = in
}

// TestConcurrentJobsShareOneInstance (run under -race): two jobs of one key,
// each run as a worker runs it, build their Problems at once on the instance
// an earlier job declared and step their backends concurrently over it; both
// answer what RunDirect answers, which declares its own. A crash clause makes
// one of them restart on the same instance.
func TestConcurrentJobsShareOneInstance(t *testing.T) {
	defer leakcheck.Check(t)()
	store := &keptInstances{kept: map[runspec.InstanceKey]*runspec.Instance{}}
	spec := JobSpec{Tenant: "acme", App: "mgcfd", MeshNodes: 800, Ranks: 3, Iters: 4, NChains: 2, Machine: "laptop"}
	crash := spec
	crash.Ranks, crash.Faults = 4, "crash=rank0@40,seed=1"
	run := func(spec JobSpec) (*Result, *runspec.Problem) {
		w, err := spec.Validate()
		if err != nil {
			t.Error(err)
			return nil, nil
		}
		w.run.Instances = store
		res, err := w.runDirect(t.TempDir())
		if err != nil {
			t.Error(err)
		}
		return res, w.problem
	}
	_, first := run(spec)
	if first == nil || first.Instance == nil {
		t.Fatal("the first job kept no instance")
	}
	specs := []JobSpec{spec, crash}
	results := make([]*Result, len(specs))
	problems := make([]*runspec.Problem, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], problems[i] = run(specs[i])
		}()
	}
	wg.Wait()
	for i, spec := range specs {
		if results[i] == nil {
			t.FailNow()
		}
		if problems[i].Instance != first.Instance {
			t.Errorf("job %d declared its own app", i)
		}
		direct, err := RunDirect(spec, "")
		if err != nil {
			t.Fatal(err)
		}
		if got, want := outcomeJSON(t, results[i]), outcomeJSON(t, direct); got != want {
			t.Errorf("job %d on the shared instance:\n   got %s\ndirect %s", i, got, want)
		}
	}
	if results[1].Restarts < 1 {
		t.Errorf("the crash job did not restart: %+v", results[1])
	}
}
