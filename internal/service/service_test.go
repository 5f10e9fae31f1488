package service_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"op2ca/internal/leakcheck"
	"op2ca/internal/service"
)

// smallMGCFD is the test workhorse: big enough to exercise multi-rank
// exchanges and checkpointing, small enough to run in milliseconds.
func smallMGCFD(tenant string) service.JobSpec {
	return service.JobSpec{
		Tenant: tenant, App: "mgcfd",
		MeshNodes: 800, Ranks: 3, Iters: 4, NChains: 2, Machine: "laptop",
	}
}

func smallHydra(tenant string) service.JobSpec {
	return service.JobSpec{
		Tenant: tenant, App: "hydra",
		MeshNodes: 800, Ranks: 3, Iters: 3, Machine: "laptop",
	}
}

func TestValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*service.JobSpec)
		want string
	}{
		{"no-tenant", func(s *service.JobSpec) { s.Tenant = "" }, "tenant"},
		{"bad-tenant", func(s *service.JobSpec) { s.Tenant = "a b" }, "tenant"},
		{"bad-app", func(s *service.JobSpec) { s.App = "nekbone" }, "app"},
		{"seq-backend", func(s *service.JobSpec) { s.Backend = "seq" }, "backend"},
		{"mesh-too-big", func(s *service.JobSpec) { s.MeshNodes = service.MaxMeshNodes + 1 }, "mesh_nodes"},
		{"one-rank", func(s *service.JobSpec) { s.Ranks = 1 }, "ranks"},
		{"ranks-over-nodes", func(s *service.JobSpec) { s.MeshNodes, s.Ranks = 60, 64 }, "exceed mesh_nodes"},
		{"neg-iters", func(s *service.JobSpec) { s.Iters = -1 }, "iters"},
		{"bad-machine", func(s *service.JobSpec) { s.Machine = "cray" }, "machine"},
		{"bad-partitioner", func(s *service.JobSpec) { s.Partitioner = "metis" }, "partitioner"},
		{"chains-on-mgcfd", func(s *service.JobSpec) { s.Chains = "chain weight\n" }, "hydra-only"},
		{"bad-faults", func(s *service.JobSpec) { s.Faults = "drop=2" }, "drop"},
		{"dup-faults", func(s *service.JobSpec) { s.Faults = "drop=0.1,drop=0.2" }, "duplicate"},
		{"bad-supervise", func(s *service.JobSpec) { s.Supervise = "budget=-1" }, "non-negative"},
	} {
		spec := smallMGCFD("acme")
		tc.mut(&spec)
		_, err := spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	levels := smallHydra("acme")
	levels.Levels = 2
	if _, err := levels.Validate(); err == nil || !strings.Contains(err.Error(), "mgcfd-only") {
		t.Errorf("levels on hydra: err = %v", err)
	}
}

func TestValidateFillsDefaults(t *testing.T) {
	spec := service.JobSpec{Tenant: "acme", App: "hydra"}
	res, err := service.RunDirect(service.JobSpec{Tenant: "acme", App: "mgcfd", MeshNodes: 200, Ranks: 2, Iters: 1, Machine: "laptop"}, "")
	if err != nil {
		t.Fatal(err)
	}
	got := res.Spec
	if got.Backend != "ca" || got.Levels != 2 || got.Partitioner != "kway" ||
		got.CheckpointEvery != 1 || got.Supervise != "on" {
		t.Errorf("mgcfd defaults not filled: %+v", got)
	}
	if w, err := spec.Validate(); err != nil {
		t.Fatal(err)
	} else if _ = w; spec.Partitioner != "" {
		t.Error("Validate must not mutate its receiver's caller copy")
	}
}

// TestRunDirectDeterministic pins the oracle itself: two direct runs of
// one spec agree bitwise, and op2 vs ca backends of the same workload
// agree with each other (the repo-wide canonical-order guarantee).
func TestRunDirectDeterministic(t *testing.T) {
	for _, mk := range []func(string) service.JobSpec{smallMGCFD, smallHydra} {
		spec := mk("acme")
		a, err := service.RunDirect(spec, "")
		if err != nil {
			t.Fatal(err)
		}
		b, err := service.RunDirect(spec, "")
		if err != nil {
			t.Fatal(err)
		}
		if a.Checksum != b.Checksum || a.MaxClockSeconds != b.MaxClockSeconds ||
			a.Residual != b.Residual || a.Exchanges != b.Exchanges {
			t.Errorf("%s: direct runs disagree: %+v vs %+v", spec.App, a, b)
		}
		if a.Checksum == "" || a.MaxClockSeconds <= 0 || a.Exchanges == 0 {
			t.Errorf("%s: degenerate result %+v", spec.App, a)
		}
		op2 := spec
		op2.Backend = "op2"
		c, err := service.RunDirect(op2, "")
		if err != nil {
			t.Fatal(err)
		}
		if c.Checksum != a.Checksum {
			t.Errorf("%s: op2 checksum %s != ca %s", spec.App, c.Checksum, a.Checksum)
		}
	}
}

// TestRunDirectMoreRanksThanNodes: the inline path reports a rank count the
// mesh cannot hold as an error — a validation error when the request shows
// it, the problem builder's when only the generated mesh does — never as the
// partitioner's panic.
func TestRunDirectMoreRanksThanNodes(t *testing.T) {
	for _, app := range []string{"mgcfd", "hydra"} {
		var ve *service.ValidationError
		_, err := service.RunDirect(service.JobSpec{Tenant: "t", App: app, MeshNodes: 60, Ranks: 64, Iters: 1}, "")
		if !errors.As(err, &ve) || !strings.Contains(err.Error(), "ranks 64 exceed mesh_nodes 60") {
			t.Errorf("%s, 64 ranks on 60 nodes: err = %v, want a validation error naming both", app, err)
		}
		_, err = service.RunDirect(service.JobSpec{Tenant: "t", App: app, MeshNodes: 62, Ranks: 62, Iters: 1}, "")
		if err == nil || errors.As(err, &ve) || !strings.Contains(err.Error(), "ranks 62 outside [1, 60]") {
			t.Errorf("%s, 62 ranks on a mesh rounded to 60 nodes: err = %v, want the problem builder's error", app, err)
		}
		if _, err = service.RunDirect(service.JobSpec{Tenant: "t", App: app, MeshNodes: 60, Ranks: 60, Iters: 1}, ""); err != nil {
			t.Errorf("%s, one node per rank: %v", app, err)
		}
	}
}

// TestRunDirectOverlap pins the overlap knob end to end through the job
// grammar: overlapped delivery moves virtual time only, so a job
// served with overlap=true answers bitwise what the bulk run answers,
// and never with a larger makespan.
func TestRunDirectOverlap(t *testing.T) {
	spec := smallMGCFD("acme")
	base, err := service.RunDirect(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	ov := spec
	ov.Overlap = true
	got, err := service.RunDirect(ov, "")
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum != base.Checksum || got.Residual != base.Residual {
		t.Errorf("overlap changed the answer: checksum %s vs %s, residual %v vs %v",
			got.Checksum, base.Checksum, got.Residual, base.Residual)
	}
	if got.MaxClockSeconds > base.MaxClockSeconds {
		t.Errorf("overlap raised the makespan: %v > %v", got.MaxClockSeconds, base.MaxClockSeconds)
	}
	if !got.Spec.Overlap {
		t.Error("result spec echo lost overlap=true")
	}
}

// TestRetryAfterScalesWithQueueDepth pins the overload hint derivation:
// Retry-After estimates the queue's drain time, so shedding against a
// deeper queue must return a larger hint than against a shallow one.
func TestRetryAfterScalesWithQueueDepth(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1, QueueCap: 6, TenantCap: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// A long job pins the only worker so the queue keeps its depth while
	// the hints are sampled (Close cancels it cooperatively).
	busy := smallMGCFD("acme")
	busy.MeshNodes = 6000
	busy.Iters = 200
	if _, err := svc.Submit(busy); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(smallMGCFD("hog")); err != nil {
		t.Fatal(err)
	}

	shed := func() *service.OverloadError {
		t.Helper()
		_, err := svc.Submit(smallMGCFD("hog"))
		var oe *service.OverloadError
		if !errors.As(err, &oe) {
			t.Fatalf("want OverloadError, got %v", err)
		}
		return oe
	}
	shallow := shed() // tenant quota, queue depth 1
	if shallow.Scope != "tenant" || shallow.RetryAfter < 1 {
		t.Fatalf("shallow shed = %+v", shallow)
	}
	for i := 0; i < 4; i++ { // other tenants deepen the queue
		if _, err := svc.Submit(smallMGCFD(fmt.Sprintf("t%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	deep := shed() // tenant quota again, queue depth 5
	if deep.Scope != "tenant" || deep.RetryAfter <= shallow.RetryAfter {
		t.Errorf("Retry-After did not grow with queue depth: %d then %d", shallow.RetryAfter, deep.RetryAfter)
	}
	if _, err := svc.Submit(smallMGCFD("t9")); err != nil { // fill to cap
		t.Fatal(err)
	}
	full := shed() // whole-queue shed outranks the tenant quota
	if full.Scope != "queue" || full.RetryAfter < deep.RetryAfter {
		t.Errorf("queue-full shed = %+v, want scope queue and Retry-After >= %d", full, deep.RetryAfter)
	}
}

// TestCloseStopsWorkers: Service.Close is the only teardown of the worker
// pool, so nothing it started — worker loops, attempts in flight, queued
// jobs — may outlive it, whether the service is idle, drained or cut off
// mid-job.
func TestCloseStopsWorkers(t *testing.T) {
	defer leakcheck.Check(t)()
	for _, mode := range []string{"idle", "drained", "mid-job"} {
		svc, err := service.New(service.Config{Workers: 2, QueueCap: 4, DataDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if mode != "idle" {
			spec := smallMGCFD("acme")
			if mode == "mid-job" {
				spec.MeshNodes, spec.Iters = 6000, 200 // still running at Close
			}
			for i := 0; i < 3; i++ {
				if _, err := svc.Submit(spec); err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
			}
		}
		if mode == "drained" {
			svc.Drain()
		}
		svc.Close()
	}
}

// TestRunDirectSelfHeals pins that a crash clause plus supervision still
// converges to the clean answer — the property the service's
// crash-migration path builds on.
func TestRunDirectSelfHeals(t *testing.T) {
	clean := smallMGCFD("acme")
	want, err := service.RunDirect(clean, "")
	if err != nil {
		t.Fatal(err)
	}
	crashed := clean
	crashed.Faults = "crash=rank0@40,seed=1"
	got, err := service.RunDirect(crashed, "")
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum != want.Checksum || got.Residual != want.Residual {
		t.Errorf("supervised crash run diverged: %s vs %s", got.Checksum, want.Checksum)
	}
	if got.Supervise == nil || got.Supervise.CrashRestarts < 1 || got.Attempts < 2 {
		t.Errorf("crash not exercised: %+v", got.Supervise)
	}
}

// TestUnwritableRingFailsJob: a job whose checkpoint ring cannot be written
// (its data directory vanished) ends failed, with the write error in its
// view — not hung waiting on a snapshot and not a process abort — and the
// worker goes on to serve the next job.
func TestUnwritableRingFailsJob(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "rings")
	svc, err := service.New(service.Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	terminal := func(id string) service.JobView {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		for after, done := 0, false; !done; {
			evs, end, err := svc.Events(ctx, id, after)
			if err != nil {
				t.Fatalf("job %s did not reach a terminal state: %v", id, err)
			}
			after, done = after+len(evs), end
		}
		v, err := svc.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	v, err := svc.Submit(smallMGCFD("acme"))
	if err != nil {
		t.Fatal(err)
	}
	v = terminal(v.ID)
	if v.State != service.StateFailed || !strings.Contains(v.Error, "no such file or directory") ||
		!strings.Contains(v.Error, v.ID+".ck") {
		t.Errorf("job with an unwritable ring: state %s, error %q; want failed with the ring's write error", v.State, v.Error)
	}
	if _, err := svc.Result(v.ID); err == nil {
		t.Error("failed job serves a result")
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	v, err = svc.Submit(smallMGCFD("acme"))
	if err != nil {
		t.Fatal(err)
	}
	if v = terminal(v.ID); v.State != service.StateDone {
		t.Errorf("job after the directory came back: state %s, error %q", v.State, v.Error)
	}
}
