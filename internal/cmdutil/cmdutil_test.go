package cmdutil

import (
	"bytes"
	"strings"
	"testing"

	"op2ca/internal/runspec"
)

func spec(backend string) runspec.Spec {
	return runspec.Spec{App: "mgcfd", MeshNodes: 500, Levels: 2, Ranks: 2, Backend: backend, Iters: 1, Machine: "laptop"}
}

func TestResolveValidation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		flags   RunFlags
		backend string
		wantErr string
	}{
		{"ckpt-needs-dist", RunFlags{Checkpoint: "every=1,path=x"}, "seq", "distributed backend"},
		{"restore-needs-dist", RunFlags{Restore: "x"}, "seq", "distributed backend"},
		{"supervise-needs-dist", RunFlags{Supervise: "on"}, "seq", "distributed backend"},
		{"supervise-vs-restore", RunFlags{Supervise: "on", Restore: "x"}, "ca", "incompatible"},
		{"bad-ckpt", RunFlags{Checkpoint: "every=0,path=x"}, "ca", "positive integer"},
		{"dup-ckpt-key", RunFlags{Checkpoint: "every=1,path=x,every=2"}, "ca", "duplicate"},
		{"bad-supervise", RunFlags{Supervise: "budget=-1"}, "ca", "non-negative"},
		{"bad-faults", RunFlags{Faults: "drop=2"}, "ca", "drop"},
		{"bad-spec", RunFlags{}, "mpi", "backend"},
	} {
		_, err := tc.flags.Resolve("test", spec(tc.backend), &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Resolve err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestResolveBuildsDerivedState(t *testing.T) {
	dir := t.TempDir()
	r, err := (&RunFlags{
		Checkpoint: "every=2,path=" + dir + "/ck.bin,keep=3",
		Supervise:  "budget=2",
		Faults:     "drop=0.01,seed=5",
		Trace:      dir + "/trace.json",
		AutoTune:   true,
	}).Resolve("prog", spec("ca"), &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ring == nil || r.Spec.CheckpointEvery != 2 {
		t.Errorf("ring %v, cadence %d; want a ring snapshotting every 2", r.Ring, r.Spec.CheckpointEvery)
	}
	if !r.Supervise.Enabled || r.Supervise.Budget != 2 {
		t.Errorf("supervise spec = %+v", r.Supervise)
	}
	if r.Plan == nil || r.Plan.Drop != 0.01 {
		t.Errorf("fault plan = %+v", r.Plan)
	}
	if r.Tracer == nil {
		t.Error("tracer not created for -trace")
	}
	if !r.Spec.AutoTune {
		t.Error("-autotune did not reach the run description")
	}
	// AutoTune downgrades off the CA backend, with a warning.
	var warn bytes.Buffer
	r2, err := (&RunFlags{AutoTune: true}).Resolve("prog", spec("op2"), &warn)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Spec.AutoTune || !strings.Contains(warn.String(), "prog: -autotune requires -backend ca") {
		t.Errorf("autotune on op2: spec %+v, warning %q", r2.Spec, warn.String())
	}
	if r2.Ring != nil || r2.Tracer != nil || r2.Spec.CheckpointEvery != 0 {
		t.Errorf("bare flags built a ring/tracer/cadence: %+v", r2)
	}
}
