package service_test

import (
	"runtime"
	"testing"

	"op2ca/internal/leakcheck"
	"op2ca/internal/service"
)

// heapLive is the benchmark's reading of the same name: the bytes still
// reachable after two collections (the second empties the sync.Pool victim
// caches the first one filled).
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestSettledJobRetention bounds what the service keeps of a settled job —
// the quantity behind the benchmark's service.retained_kb_per_job: the growth
// of the live heap over 200 jobs, per job. The record is the spec, the
// result and the lifecycle events; the resolved run description (the parsed
// chain configuration of every hydra job, the fault plan, the supervise spec)
// went with the Problem, the ring and the supervisor. The parent of PR 23
// read 2 579 to 2 622 B per job here and the change 1 314 to 1 346 (five runs
// each at GOMAXPROCS 1 and 4); the bound sits between them, on the mean of the
// run, on an idle service, at a pinned GOMAXPROCS.
func TestSettledJobRetention(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	svc, err := service.New(service.Config{Workers: 2, QueueCap: 8, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// The mix a served cycle has — both apps, both backends, a fault plan on
	// some — and one failed job in ten: more ranks than the rounded mesh holds.
	specs := []service.JobSpec{
		{Tenant: "alpha", App: "mgcfd", Backend: "op2", MeshNodes: 300, Ranks: 2, Iters: 2, NChains: 2},
		{Tenant: "beta", App: "hydra", Backend: "ca", MeshNodes: 300, Ranks: 2, Iters: 1},
		{Tenant: "gamma", App: "mgcfd", Backend: "ca", MeshNodes: 300, Ranks: 3, Iters: 2, NChains: 2, Faults: "drop=0.02,seed=7"},
		{Tenant: "alpha", App: "hydra", Backend: "op2", MeshNodes: 300, Ranks: 3, Iters: 1},
	}
	failing := service.JobSpec{Tenant: "beta", App: "hydra", MeshNodes: 62, Ranks: 62, Iters: 1}
	run := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			spec := specs[i%len(specs)]
			if i%10 == 9 {
				spec = failing
			}
			if _, err := svc.Submit(spec); err != nil {
				t.Fatal(err)
			}
			if i%4 == 3 {
				svc.Drain() // stay below the queue's cap
			}
		}
		svc.Drain()
	}
	run(20) // pools, spare files, the partition store and the maps' first buckets
	const jobs = 200
	before := heapLive()
	run(jobs)
	perJob := (float64(heapLive()) - float64(before)) / jobs
	t.Logf("the service retains %.0f B per settled job", perJob)
	if perJob > 2000 {
		t.Errorf("the service retains %.0f B per settled job, want at most 2000: what does a settled job still hold?", perJob)
	}
}

// TestIdleServiceHoldsNoSlab: the slabs the service lends its jobs are the
// collector's while nobody borrows them. After a warm-up on a 300-node mesh
// (pools, spare files, the maps' first buckets), eight jobs of the served
// size — their backends borrow and return a megabyte and more each, a gather
// buffer of 200 KB at the least — and the idle service's live heap, read the
// way the benchmark reads heap_live_mb, has grown by less than any one of
// them.
func TestIdleServiceHoldsNoSlab(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer leakcheck.Check(t)()
	svc, err := service.New(service.Config{Workers: 2, QueueCap: 8, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	run := func(meshNodes int) {
		t.Helper()
		for i := 0; i < 8; i++ {
			spec := service.JobSpec{Tenant: "acme", App: "hydra", MeshNodes: meshNodes, Ranks: 4 + 4*(i%2), Iters: 2}
			if i%4 >= 2 {
				spec.App, spec.NChains = "mgcfd", 2
			}
			if _, err := svc.Submit(spec); err != nil {
				t.Fatal(err)
			}
		}
		svc.Drain()
	}
	run(300)
	before := heapLive()
	run(4200)
	grew := float64(heapLive()) - float64(before)
	t.Logf("the idle service's live heap grew by %.0f B over eight jobs", grew)
	if grew > 64<<10 {
		t.Errorf("the idle service's live heap grew by %.0f B over eight jobs, want less than 64 KB: is a slab still referenced?", grew)
	}
}
