package service

import (
	"encoding/json"
	"slices"
	"strings"
	"sync"
	"testing"

	"op2ca/internal/leakcheck"
	"op2ca/internal/partition"
	"op2ca/internal/runspec"
)

// servedTemplates are serve-mixed's eight job templates: {mgcfd, hydra} x
// {op2, ca} x {4, 8 ranks} on the 4 200-node mesh. They share four
// (mesh_nodes, partitioner, ranks).
func servedTemplates() []JobSpec {
	var specs []JobSpec
	for _, app := range []string{"mgcfd", "hydra"} {
		for _, backend := range []string{"op2", "ca"} {
			for _, ranks := range []int{4, 8} {
				spec := JobSpec{Tenant: "acme", App: app, Backend: backend, MeshNodes: 4200,
					Ranks: ranks, Iters: 5, CheckpointEvery: 1}
				if app == "mgcfd" {
					spec.NChains = 2
				}
				specs = append(specs, spec)
			}
		}
	}
	return specs
}

// outcomeJSON is a Result as the wire carries it, without what says where
// the job ran: its id and its workers.
func outcomeJSON(t *testing.T, r *Result) string {
	t.Helper()
	c := *r
	c.JobID, c.Workers = "", nil
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// partitionEvents returns the messages of the job's partition events.
func partitionEvents(v JobView) []string {
	var msgs []string
	for _, ev := range v.Events {
		if strings.HasPrefix(ev.Msg, "partition ") {
			msgs = append(msgs, ev.Msg)
		}
	}
	return msgs
}

// TestPartitionStoreInvisibleInResults: the eight served templates, twice
// through one two-worker service. The second round takes every partition
// from the store and answers, field for field, what the first round and
// RunDirect (which has no store) answer; the only trace is the counters and
// each job's partition event.
func TestPartitionStoreInvisibleInResults(t *testing.T) {
	defer leakcheck.Check(t)()
	svc, err := New(Config{Workers: 2, QueueCap: 8, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	specs := servedTemplates()
	round := func() (results []string, events []string) {
		var ids []string
		for _, spec := range specs {
			v, err := svc.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, v.ID)
		}
		svc.Drain()
		for _, id := range ids {
			r, err := svc.Result(id)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, outcomeJSON(t, r))
			v, _ := svc.Get(id)
			msgs := partitionEvents(v)
			if len(msgs) != 1 {
				t.Fatalf("job %s has partition events %q, want exactly one", id, msgs)
			}
			events = append(events, msgs[0])
		}
		return results, events
	}

	first, events := round()
	hits, misses, bytes := svc.parts.stats()
	if misses < 4 || misses > 8 || hits+misses != 8 {
		t.Errorf("first round: %d hits, %d misses; want 8 lookups with 4 to 8 misses (four keys, two workers)", hits, misses)
	}
	computed := 0
	for _, msg := range events {
		if msg == "partition computed" {
			computed++
		}
	}
	if computed != misses {
		t.Errorf("first round: %d jobs say they computed their partition, the store counted %d misses", computed, misses)
	}
	// Four assignments of the 22x17x11 mesh, one byte a vertex.
	if want := 4 * (22*17*11 + partEntryOverhead); bytes != want {
		t.Errorf("store holds %d bytes after the first round, want %d", bytes, want)
	}

	second, events := round()
	if h, m, b := svc.parts.stats(); h != hits+8 || m != misses || b != bytes {
		t.Errorf("second round: %d hits, %d misses, %d bytes; want %d, %d, %d", h, m, b, hits+8, misses, bytes)
	}
	for i, spec := range specs {
		if events[i] != "partition from store" {
			t.Errorf("second round, job %d says %q", i, events[i])
		}
		direct, err := RunDirect(spec, "")
		if err != nil {
			t.Fatal(err)
		}
		want := outcomeJSON(t, direct)
		if first[i] != want || second[i] != want {
			t.Errorf("%s/%s/%d ranks:\n first %s\nsecond %s\ndirect %s", spec.App, spec.Backend, spec.Ranks, first[i], second[i], want)
		}
	}
}

// TestPartitionStoreConcurrentJobsShareNothing (run under -race): sixteen
// jobs over two keys submitted at once to two workers, every result
// RunDirect's; then, with both keys in the store, a Problem built through it
// is scribbled over and the next ones built through it — and without it —
// still hold the partitioner's assignment.
func TestPartitionStoreConcurrentJobsShareNothing(t *testing.T) {
	defer leakcheck.Check(t)()
	svc, err := New(Config{Workers: 2, QueueCap: 16, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	specs := []JobSpec{
		{Tenant: "acme", App: "mgcfd", MeshNodes: 800, Ranks: 3, Iters: 2, NChains: 2, Machine: "laptop"},
		{Tenant: "zeta", App: "hydra", MeshNodes: 800, Ranks: 4, Iters: 1, Machine: "laptop"},
	}
	ids := make([]string, 16)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := svc.Submit(specs[i%2])
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = v.ID
		}()
	}
	wg.Wait()
	svc.Drain()
	for k, spec := range specs {
		direct, err := RunDirect(spec, "")
		if err != nil {
			t.Fatal(err)
		}
		want := outcomeJSON(t, direct)
		for i := k; i < len(ids); i += 2 {
			r, err := svc.Result(ids[i])
			if err != nil {
				t.Fatal(err)
			}
			if got := outcomeJSON(t, r); got != want {
				t.Errorf("job %s:\n   got %s\ndirect %s", ids[i], got, want)
			}
		}
	}
	if hits, misses, _ := svc.parts.stats(); hits+misses != 16 || misses < 2 || misses > 4 {
		t.Errorf("%d hits, %d misses; want 16 lookups with 2 to 4 misses (two keys, two workers)", hits, misses)
	}

	build := func(store runspec.Assignments) *runspec.Problem {
		t.Helper()
		w, err := specs[0].Validate()
		if err != nil {
			t.Fatal(err)
		}
		w.run.Assignments = store
		p, err := w.run.NewProblem()
		if err != nil {
			t.Fatal(err)
		}
		if stored := store != nil; p.AssignStored != stored {
			t.Fatalf("Problem.AssignStored = %v, want %v", p.AssignStored, stored)
		}
		return p
	}
	want := slices.Clone(build(nil).Assign)
	scribbled := build(svc.parts)
	for v := range scribbled.Assign {
		scribbled.Assign[v] = -1
	}
	for i := 0; i < 2; i++ {
		if got := build(svc.parts).Assign; !slices.Equal(got, want) {
			t.Fatalf("a Problem built through the store after another's Assign was overwritten differs from the partitioner's")
		}
	}
}

// TestRestartDoesNotConsultTheStore: a crash-clause job looks its partition
// up once, on its first attempt; the restart is built on the job's Problem.
func TestRestartDoesNotConsultTheStore(t *testing.T) {
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
	if v, _ = svc.Get(v.ID); v.State != StateDone || v.Attempts < 2 {
		t.Fatalf("crash job ended %s after %d attempts; want done after at least two", v.State, v.Attempts)
	}
	if hits, misses, _ := svc.parts.stats(); hits != 0 || misses != 1 {
		t.Errorf("%d attempts made %d hits and %d misses; want the first attempt's one miss", v.Attempts, hits, misses)
	}
	if msgs := partitionEvents(v); !slices.Equal(msgs, []string{"partition computed"}) {
		t.Errorf("partition events %q, want one, from the first attempt", msgs)
	}
}

// TestPartitionStoreBound: the store never holds more than its budget,
// evicts the least recently used entry first, does not keep an assignment
// that alone exceeds the budget, and is emptied by reset.
func TestPartitionStoreBound(t *testing.T) {
	const vertices = 1000
	s := newPartStore(3*(vertices+partEntryOverhead) + 100) // room for three
	key := func(ranks int) runspec.AssignmentKey {
		return runspec.AssignmentKey{MeshNodes: vertices, Partitioner: "block", Ranks: ranks}
	}
	held := func() []int {
		t.Helper()
		var ranks []int
		for r := 2; r <= 8; r++ {
			// Look without touching the order under test.
			s.mu.Lock()
			el := s.entries[key(r)]
			s.mu.Unlock()
			if el != nil {
				ranks = append(ranks, r)
			}
		}
		if _, _, bytes := s.stats(); bytes > s.budget || bytes != len(ranks)*(vertices+partEntryOverhead) {
			t.Fatalf("store charges %d bytes for %d entries under a budget of %d", bytes, len(ranks), s.budget)
		}
		return ranks
	}
	for r := 2; r <= 4; r++ {
		s.Store(key(r), partition.Block(vertices, r))
	}
	if got := held(); !slices.Equal(got, []int{2, 3, 4}) {
		t.Fatalf("holds ranks %v after three stores, want [2 3 4]", got)
	}
	// A hit is a use: 2 is now the most recent, 3 the least.
	if a := s.Load(key(2)); !slices.Equal(a, partition.Block(vertices, 2)) {
		t.Fatal("Load returned something other than what was stored")
	}
	s.Store(key(5), partition.Block(vertices, 5))
	if got := held(); !slices.Equal(got, []int{2, 4, 5}) {
		t.Errorf("holds ranks %v after a fourth store, want [2 4 5]: the least recently used goes first", got)
	}
	// So is a second Store of a key it has: 4 is refreshed, 2 goes.
	s.Store(key(4), partition.Block(vertices, 4))
	s.Store(key(6), partition.Block(vertices, 6))
	if got := held(); !slices.Equal(got, []int{4, 5, 6}) {
		t.Errorf("holds ranks %v, want [4 5 6]", got)
	}
	// An assignment that would not fit an empty store displaces nothing.
	big := runspec.AssignmentKey{MeshNodes: 10 * vertices, Partitioner: "block", Ranks: 2}
	s.Store(big, partition.Block(10*vertices, 2))
	if s.Load(big) != nil {
		t.Error("an assignment larger than the budget was kept")
	}
	if got := held(); !slices.Equal(got, []int{4, 5, 6}) {
		t.Errorf("holds ranks %v after the oversized store, want [4 5 6]", got)
	}
	hits, misses, _ := s.stats()
	s.reset()
	if got := held(); len(got) != 0 || s.lru.Len() != 0 {
		t.Errorf("holds ranks %v in a list of %d after reset", got, s.lru.Len())
	}
	if h, m, _ := s.stats(); h != hits || m != misses {
		t.Errorf("reset moved the counters: %d, %d -> %d, %d", hits, misses, h, m)
	}

	// The service's store has the constant budget and goes with the service.
	defer leakcheck.Check(t)()
	svc, err := New(Config{Workers: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(JobSpec{Tenant: "acme", App: "hydra", MeshNodes: 800, Ranks: 3, Iters: 1, Machine: "laptop"}); err != nil {
		t.Fatal(err)
	}
	svc.Drain()
	if _, _, bytes := svc.parts.stats(); svc.parts.budget != partStoreBudget || bytes == 0 || bytes > partStoreBudget {
		t.Errorf("a service's store holds %d bytes under a budget of %d after one job", bytes, svc.parts.budget)
	}
	svc.Close()
	if _, _, bytes := svc.parts.stats(); bytes != 0 || len(svc.parts.entries) != 0 {
		t.Errorf("a closed service's store still holds %d bytes in %d entries", bytes, len(svc.parts.entries))
	}
}

// TestMoreRanksThanNodesWithStore: more ranks than the rounded mesh holds
// ends in runspec's SizeError whether the store has the mesh's other
// assignments (a job on the same mesh and partitioner went before) or nothing.
func TestMoreRanksThanNodesWithStore(t *testing.T) {
	defer leakcheck.Check(t)()
	svc, err := New(Config{Workers: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	tooMany := JobSpec{Tenant: "t", App: "hydra", MeshNodes: 62, Ranks: 62, Iters: 1}
	fits := tooMany
	fits.Ranks = 60 // the 62 nodes asked for make a 60-node mesh
	for _, spec := range []JobSpec{tooMany, fits, tooMany} {
		v, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		svc.Drain()
		v, _ = svc.Get(v.ID)
		if spec.Ranks == 60 {
			if v.State != StateDone {
				t.Fatalf("60 ranks on 60 nodes: %s (%s)", v.State, v.Error)
			}
			continue
		}
		if v.State != StateFailed || !strings.Contains(v.Error, "ranks 62 outside [1, 60]") {
			t.Errorf("62 ranks on a mesh rounded to 60 nodes: state %s, error %q; want failed naming both", v.State, v.Error)
		}
	}
	if hits, misses, bytes := svc.parts.stats(); hits != 0 || misses != 1 || bytes != 60+partEntryOverhead {
		t.Errorf("%d hits, %d misses, %d bytes; want only the 60-rank job to have reached the store", hits, misses, bytes)
	}
}

// BenchmarkNewProblem builds the Problem of the served template (mgcfd, 4 200
// nodes, 8 ranks, kway) through a store that has its assignment (hit) and one
// that does not (miss: the partitioner, and the Store): the difference is
// what a job after the first of its key saves.
func BenchmarkNewProblem(b *testing.B) {
	w, err := JobSpec{Tenant: "acme", App: "mgcfd", MeshNodes: 4200, Ranks: 8, NChains: 2}.Validate()
	if err != nil {
		b.Fatal(err)
	}
	store := newPartStore(partStoreBudget)
	w.run.Assignments = store
	for _, mode := range []string{"miss", "hit"} {
		b.Run(mode, func(b *testing.B) {
			if _, err := w.run.NewProblem(); err != nil { // the hit's entry
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "miss" {
					store.reset()
				}
				p, err := w.run.NewProblem()
				if err != nil || p.AssignStored != (mode == "hit") {
					b.Fatalf("%s: stored %v, %v", mode, p.AssignStored, err)
				}
			}
		})
	}
}
