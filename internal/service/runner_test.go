package service

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"op2ca/internal/checkpoint"
	"op2ca/internal/leakcheck"
	"op2ca/internal/runspec"
	"op2ca/internal/supervise"
)

// TestJobSpecWireFormat pins the wire format across the move of the run
// grammar into internal/runspec: the JSON of a spec as a client writes it,
// and of the normalised echo Validate puts into views and results, are the
// strings the service produced before the move.
func TestJobSpecWireFormat(t *testing.T) {
	for _, tc := range []struct {
		spec       JobSpec
		wire, echo string
	}{
		{JobSpec{Tenant: "acme", App: "hydra", MeshNodes: 900, Ranks: 3, Backend: "op2", Overlap: true,
			Iters: 2, Machine: "cirrus", Partitioner: "rcb", Chains: "chain gradl maxhe=3\n",
			Faults: "drop=0.01,crash=rank1@9,seed=4", Supervise: "budget=2,watchdog=50", CheckpointEvery: 2},
			`{"tenant":"acme","app":"hydra","mesh_nodes":900,"ranks":3,"backend":"op2","overlap":true,"iters":2,"machine":"cirrus","partitioner":"rcb","chains":"chain gradl maxhe=3\n","faults":"drop=0.01,crash=rank1@9,seed=4","supervise":"budget=2,watchdog=50","checkpoint_every":2}`,
			`{"tenant":"acme","app":"hydra","mesh_nodes":900,"ranks":3,"backend":"op2","overlap":true,"iters":2,"machine":"cirrus","partitioner":"rcb","chains":"chain gradl maxhe=3\n","faults":"drop=0.01,crash=rank1@9,seed=4","supervise":"on,budget=2,watchdog=50","checkpoint_every":2}`},
		{JobSpec{Tenant: "acme", App: "mgcfd", Levels: 3, NChains: 5},
			`{"tenant":"acme","app":"mgcfd","levels":3,"nchains":5}`,
			`{"tenant":"acme","app":"mgcfd","mesh_nodes":2000,"levels":3,"nchains":5,"ranks":4,"backend":"ca","iters":5,"machine":"archer2","partitioner":"kway","supervise":"on","checkpoint_every":1}`},
		{JobSpec{Tenant: "t", App: "hydra"},
			`{"tenant":"t","app":"hydra"}`,
			`{"tenant":"t","app":"hydra","mesh_nodes":2000,"ranks":4,"backend":"ca","iters":5,"machine":"archer2","partitioner":"rib","supervise":"on","checkpoint_every":1}`},
	} {
		if got, _ := json.Marshal(tc.spec); string(got) != tc.wire {
			t.Errorf("wire form\n got %s\nwant %s", got, tc.wire)
		}
		w, err := tc.spec.Validate()
		if err != nil {
			t.Errorf("%s: %v", tc.wire, err)
			continue
		}
		if got, _ := json.Marshal(w.spec); string(got) != tc.echo {
			t.Errorf("normalised echo\n got %s\nwant %s", got, tc.echo)
		}
	}
}

// TestResultWireFormat pins a finished job's record across the move of the
// fault and supervise ledgers from internal/bench's mirror structs to the
// cluster types themselves: the JSON of a job that ran under a fault plan and
// survived a supervised restart is the string the service produced before.
func TestResultWireFormat(t *testing.T) {
	res, err := RunDirect(JobSpec{Tenant: "acme", App: "mgcfd", MeshNodes: 800, Ranks: 3, Iters: 4, Machine: "laptop",
		Faults: "drop=0.05,delay=3x@0.1,crash=rank1@30,seed=4"}, "")
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"job_id":"direct","tenant":"acme","spec":{"tenant":"acme","app":"mgcfd","mesh_nodes":800,"levels":2,"ranks":3,"backend":"ca","iters":4,"machine":"laptop","partitioner":"kway","faults":"drop=0.05,delay=3x@0.1,crash=rank1@30,seed=4","supervise":"on","checkpoint_every":1},"checksum":"d0ef3b6faaeb42f7","residual":1099.3689423012238,"max_clock_seconds":0.00024404959999999997,"exchanges":51,"fault_spec":"drop=0.05,delay=3x@0.1,crash=rank1@30,seed=4","faults":{"drops":8,"corrupts":0,"delays":11,"retries":8,"giveups":0,"fallback_ungrouped":0,"fallback_perloop":0},"supervise":{"attempts":2,"restarts":1,"crash_restarts":1,"exchange_restarts":0,"watchdog_trips":0,"generations_tried":1,"quarantined":0,"cold_starts":1,"backoff_virtual_seconds":1},"attempts":2,"preemptions":0,"restarts":1}`
	if got, _ := json.Marshal(res); string(got) != want {
		t.Errorf("result wire form\n got %s\nwant %s", got, want)
	}
}

// TestRingScrubbedOutsideTheLock: a settled job's generations are unlinked
// after the service lock is released, not under it. The hook runs between
// the two, on the worker: Get (which takes the lock — it would deadlock here
// if the worker still held it) already shows the job done with its result
// served, while its generations are still on disk; once the worker is joined
// the ring is empty.
func TestRingScrubbedOutsideTheLock(t *testing.T) {
	defer leakcheck.Check(t)()
	dir := t.TempDir()
	svc, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	onDisk := func() []string {
		m, err := filepath.Glob(filepath.Join(dir, "j000001.ck.g*"))
		if err != nil {
			t.Error(err)
		}
		return m
	}
	type seen struct {
		state  State
		result error
		gens   int
	}
	atScrub := make(chan seen, 1) // one job, one scrub
	svc.beforeScrub = func() {
		v, _ := svc.Get("j000001")
		_, rerr := svc.Result("j000001")
		atScrub <- seen{v.State, rerr, len(onDisk())}
	}
	v, err := svc.Submit(JobSpec{Tenant: "acme", App: "mgcfd", MeshNodes: 800, Ranks: 3, Iters: 4, NChains: 2, Machine: "laptop"})
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != "j000001" {
		t.Fatalf("first job is %s", v.ID)
	}
	svc.Drain()
	svc.Close() // joins the worker, and with it the scrub
	select {
	case s := <-atScrub:
		if s.state != StateDone || s.result != nil || s.gens != defaultKeep {
			t.Errorf("when the scrub began: state %s, result error %v, %d generations on disk; want done, served, %d",
				s.state, s.result, s.gens, defaultKeep)
		}
	default:
		t.Error("the settled job's ring was never scrubbed")
	}
	if left := onDisk(); len(left) != 0 {
		t.Errorf("generations left after the job settled: %v", left)
	}
}

// TestRestartsReuseTheProblem: the attempts of one job are built on one
// Problem — the mesh, hierarchy and partition are generated by the first and
// shared by every restart — and a settled job lets go of it.
func TestRestartsReuseTheProblem(t *testing.T) {
	defer leakcheck.Check(t)()
	spec := JobSpec{Tenant: "acme", App: "mgcfd", MeshNodes: 800, Ranks: 3, Iters: 2, NChains: 2, Machine: "laptop"}
	w, err := spec.Validate()
	if err != nil {
		t.Fatal(err)
	}
	first, err := w.runAttempt(nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := w.problem
	if p == nil || p.Mesh == nil || p.Assign == nil {
		t.Fatalf("the first attempt left problem %+v", p)
	}
	second, err := w.runAttempt(nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.problem != p {
		t.Error("the second attempt built a new Problem")
	}
	if first.Checksum != second.Checksum || first.MaxClock != second.MaxClock {
		t.Errorf("attempts over one Problem differ: %+v vs %+v", first, second)
	}

	svc, err := New(Config{Workers: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	spec.Iters, spec.Faults = 4, "crash=rank0@40,seed=1"
	v, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	svc.Drain()
	svc.mu.Lock()
	j := svc.jobs[v.ID]
	state, restarts, held := j.state, j.restarts, j.w.problem
	svc.mu.Unlock()
	if state != StateDone || restarts < 1 {
		t.Fatalf("crash job ended %s after %d restarts; want done after at least one", state, restarts)
	}
	if held != nil {
		t.Error("the settled job still holds its Problem")
	}
}

// TestCrashResumesFromTheGenerationInFlight: a generation commits behind the
// iteration after it, so a crash clause placed at that iteration's first
// exchange — microseconds after generation k was staged, an fsync before its
// commit can be over — fires with the commit in flight. The attempt flushes
// the ring on the panic's way out and the recovery joins before it scans, so
// the restart resumes from iteration k, not k - 1, and the job's Result is
// RunDirect's byte for byte. The attempts run as a worker runs them
// (runJob's Recover / runAttempt / OnFailure, a ring on a shared spares list),
// with the attach hook reading where each began.
func TestCrashResumesFromTheGenerationInFlight(t *testing.T) {
	defer leakcheck.Check(t)()
	spec := JobSpec{Tenant: "acme", App: "mgcfd", MeshNodes: 800, Ranks: 3, Iters: 5, NChains: 2, Machine: "laptop"}
	w, err := spec.Validate()
	if err != nil {
		t.Fatal(err)
	}
	// The clean run's exchange count after each iteration: iteration k+1's
	// first exchange carries the number that iteration k ended on.
	p, err := w.run.NewProblem()
	if err != nil {
		t.Fatal(err)
	}
	a, err := w.run.BuildFrom(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Init()
	var after []uint64
	for it := 0; it < spec.Iters; it++ {
		a.Step()
		after = append(after, a.CB.ExchangeSeq())
	}
	a.Close()

	const k = 3
	spec.Faults = fmt.Sprintf("crash=rank0@%d,seed=1", after[k-1])
	want, err := RunDirect(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	if w, err = spec.Validate(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spares, err := checkpoint.OpenSpares(dir, defaultKeep+1)
	if err != nil {
		t.Fatal(err)
	}
	defer spares.Close()
	ring, err := spares.NewRing(checkpoint.Spec{Every: w.spec.CheckpointEvery, Path: filepath.Join(dir, "j.ck"), Keep: defaultKeep})
	if err != nil {
		t.Fatal(err)
	}
	sup := supervise.NewSupervisor(w.run.Supervise, w.run.Plan, ring, nil)
	var starts []int
	var out runspec.Outcome
	for {
		out, err = w.runAttempt(sup.Recover(), sup, ring, func(a *runspec.Attempt) { starts = append(starts, a.Start) })
		if err == nil {
			break
		}
		if err = sup.OnFailure(err); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(starts, []int{0, k}) {
		t.Errorf("attempts began at iterations %v, want [0 %d]: the restart resumes from the generation in flight at the crash", starts, k)
	}
	sup.Finish(out.Stats)
	got := newResult("direct", w, out, sup, sup.Stats().Attempts, 0, nil)
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("result differs from RunDirect's:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}
