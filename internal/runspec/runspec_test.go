package runspec

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"op2ca/internal/checkpoint"
	"op2ca/internal/leakcheck"
	"op2ca/internal/mesh"
)

func small(app string) Spec {
	s := Spec{App: app, MeshNodes: 600, Ranks: 3, Backend: "ca", Iters: 3, Machine: "laptop"}
	if app == "mgcfd" {
		s.Levels, s.NChains = 2, 2
	}
	return s
}

func TestResolveRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		app  string
		mut  func(*Spec)
		want string
	}{
		{"no-app", "mgcfd", func(s *Spec) { s.App = "" }, "want mgcfd or hydra"},
		{"bad-app", "mgcfd", func(s *Spec) { s.App = "nekbone" }, "want mgcfd or hydra"},
		{"bad-backend", "mgcfd", func(s *Spec) { s.Backend = "mpi" }, "want seq, op2 or ca"},
		{"bad-machine", "hydra", func(s *Spec) { s.Machine = "cray" }, "unknown machine"},
		{"bad-partitioner", "hydra", func(s *Spec) { s.Partitioner = "metis" }, "partitioner"},
		{"chains-on-mgcfd", "mgcfd", func(s *Spec) { s.Chains = "chain weight\n" }, "hydra-only"},
		{"safe-on-mgcfd", "mgcfd", func(s *Spec) { s.Safe = true }, "hydra-only"},
		{"levels-on-hydra", "hydra", func(s *Spec) { s.Levels = 2 }, "mgcfd-only"},
		{"nchains-on-hydra", "hydra", func(s *Spec) { s.NChains = 1 }, "mgcfd-only"},
		{"bad-chains", "hydra", func(s *Spec) { s.Chains = "loop orphan he=1\n" }, "chain"},
		{"bad-faults", "mgcfd", func(s *Spec) { s.Faults = "drop=2" }, "drop"},
		{"bad-supervise", "mgcfd", func(s *Spec) { s.Supervise = "budget=-1" }, "non-negative"},
	} {
		s := small(tc.app)
		tc.mut(&s)
		_, err := s.Resolve()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Resolve err = %v, want substring %q", tc.name, err, tc.want)
		}
		var size *SizeError
		if errors.As(err, &size) {
			t.Errorf("%s: a grammar error reported as a size error: %v", tc.name, err)
		}
	}
}

// TestResolveRejectsSizes: sizes that are not sizes end in a *SizeError (the
// front-ends tell it from a grammar error), and the ones a run can do
// without — zero iterations, no ranks under seq, no cadence — still resolve.
func TestResolveRejectsSizes(t *testing.T) {
	for _, tc := range []struct {
		name string
		app  string
		mut  func(*Spec)
		want string // "" = accepted
	}{
		{"no-nodes", "mgcfd", func(s *Spec) { s.MeshNodes = 0 }, "mesh nodes 0"},
		{"negative-nodes", "hydra", func(s *Spec) { s.MeshNodes = -5 }, "mesh nodes -5"},
		{"negative-iters", "mgcfd", func(s *Spec) { s.Iters = -1 }, "iterations -1"},
		{"negative-levels", "mgcfd", func(s *Spec) { s.Levels = -2 }, "levels -2"},
		{"negative-nchains", "mgcfd", func(s *Spec) { s.NChains = -1 }, "nchains -1"},
		{"negative-cadence", "hydra", func(s *Spec) { s.CheckpointEvery = -1 }, "cadence -1"},
		{"no-ranks", "hydra", func(s *Spec) { s.Ranks = 0 }, "ranks 0 outside"},
		{"negative-ranks", "mgcfd", func(s *Spec) { s.Ranks = -3 }, "ranks -3 outside"},
		{"no-ranks-seq", "mgcfd", func(s *Spec) { s.Backend, s.Ranks = "seq", 0 }, ""},
		{"no-iters", "hydra", func(s *Spec) { s.Iters = 0 }, ""},
		{"no-chains", "mgcfd", func(s *Spec) { s.NChains = 0 }, ""},
		{"one-node", "hydra", func(s *Spec) { s.MeshNodes, s.Ranks = 1, 1 }, ""},
	} {
		s := small(tc.app)
		tc.mut(&s)
		_, err := s.Resolve()
		var size *SizeError
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Resolve err = %v, want accepted", tc.name, err)
		case tc.want != "" && (!errors.As(err, &size) || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Resolve err = %v, want a *SizeError mentioning %q", tc.name, err, tc.want)
		}
	}
	// The upper end of the rank range needs the generated mesh: NewProblem's.
	s := small("mgcfd")
	s.Ranks = 5000
	r, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var size *SizeError
	if _, err := r.NewProblem(); !errors.As(err, &size) {
		t.Errorf("5000 ranks on %d nodes: NewProblem err = %v, want a *SizeError", s.MeshNodes, err)
	}
}

// TestResolveDerives pins what Resolve works out: the app's default
// partitioner, the parsed artefacts, and the chain-file -> halo-depth rule.
func TestResolveDerives(t *testing.T) {
	r, err := small("mgcfd").Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.Spec.Partitioner != "kway" || r.Depth != 2 || r.Chains != nil || r.Plan != nil || r.Supervise.Enabled {
		t.Errorf("mgcfd resolved to %+v", r)
	}

	h := small("hydra")
	h.Faults, h.Supervise = "drop=0.01,seed=3", "budget=2"
	if r, err = h.Resolve(); err != nil {
		t.Fatal(err)
	}
	if r.Spec.Partitioner != "rib" || r.Depth != 2 || r.Chains.Get("weight") == nil {
		t.Errorf("hydra resolved to partitioner %q depth %d chains %v; want rib, 2, the paper configuration",
			r.Spec.Partitioner, r.Depth, r.Chains)
	}
	if r.Plan == nil || r.Plan.Drop != 0.01 || !r.Supervise.Enabled || r.Supervise.Budget != 2 {
		t.Errorf("plan %+v supervise %+v", r.Plan, r.Supervise)
	}

	for _, tc := range []struct {
		name   string
		mut    func(*Spec)
		depth  int
		chains bool
	}{
		{"safe", func(s *Spec) { s.Safe = true }, 5, false},
		{"safe-beats-file", func(s *Spec) { s.Safe, s.Chains = true, "chain gradl maxhe=4\n" }, 5, false},
		{"shallow-file", func(s *Spec) { s.Chains = "chain gradl maxhe=1\n" }, 2, true},
		{"deep-maxhe", func(s *Spec) { s.Chains = "chain gradl maxhe=4\n" }, 4, true},
		{"deep-loop", func(s *Spec) { s.Chains = "chain gradl maxhe=2\n  loop edgecon he=3\n  loop period he=1\n" }, 3, true},
	} {
		s := small("hydra")
		tc.mut(&s)
		r, err := s.Resolve()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if r.Depth != tc.depth || (r.Chains != nil) != tc.chains {
			t.Errorf("%s: depth %d chains %v, want depth %d chains %t", tc.name, r.Depth, r.Chains, tc.depth, tc.chains)
		}
	}
}

func TestIterNoteRoundTrip(t *testing.T) {
	n, err := ParseIterNote(IterNote(17))
	if err != nil || n != 17 {
		t.Fatalf("round trip = %d, %v", n, err)
	}
	if _, err := ParseIterNote("setup complete"); err == nil {
		t.Error("non-iteration note accepted")
	}
}

func TestMachineAndPartitioner(t *testing.T) {
	for _, name := range []string{"archer2", "cirrus", "laptop"} {
		if m, err := machineByName(name); err != nil || m == nil {
			t.Errorf("machineByName(%q) = %v, %v", name, m, err)
		}
	}
	m := mesh.Rotor(6, 5, 4)
	for _, p := range []string{"kway", "rib", "rcb", "block"} {
		a, err := assignment(m, p, 3)
		if err != nil || len(a) != m.NNodes {
			t.Errorf("assignment(%q) len %d, %v", p, len(a), err)
		}
	}
	if _, err := assignment(m, "metis", 3); err == nil {
		t.Error("unknown partitioner accepted")
	}
	// A part count the mesh cannot hold is an error for every partitioner,
	// not their argument panic; one node per rank is the limit.
	for _, p := range []string{"kway", "rib", "rcb", "block"} {
		for _, ranks := range []int{0, -1, m.NNodes + 1} {
			if _, err := assignment(m, p, ranks); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("ranks %d outside [1, %d]", ranks, m.NNodes)) {
				t.Errorf("assignment(%q, %d ranks on %d nodes): err = %v", p, ranks, m.NNodes, err)
			}
		}
		if a, err := assignment(m, p, m.NNodes); err != nil || a.NumParts() != m.NNodes {
			t.Errorf("assignment(%q, one node per rank) = %d parts, %v", p, a.NumParts(), err)
		}
	}
}

// TestDriveResumesAcrossHostThreading runs each app uninterrupted, then
// again stopping early with a ring under a worker pool, and resumes the
// newest generation on one host thread: the resumed attempt starts where
// the snapshot says and ends in the uninterrupted outcome, which also
// matches the sequential reference.
func TestDriveResumesAcrossHostThreading(t *testing.T) {
	defer leakcheck.Check(t)()
	for _, app := range []string{"mgcfd", "hydra"} {
		s := small(app)
		s.Safe = app == "hydra" // so VerifyAgainstSeq must match to rounding
		s.CheckpointEvery = 1
		r, err := s.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		// One Problem under all three attempts, as a job's restarts share one.
		p, err := r.NewProblem()
		if err != nil {
			t.Fatal(err)
		}
		run := func(r *Run, st *checkpoint.State, ring *checkpoint.Ring) (*Attempt, Outcome) {
			t.Helper()
			a, err := r.BuildFrom(p, st)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Drive(ring); err != nil {
				t.Fatal(err)
			}
			return a, a.Outcome()
		}
		whole, want := run(r, nil, nil)
		if worst, tol := whole.VerifyAgainstSeq(); worst > tol || tol != 1e-9 {
			t.Errorf("%s: differs from the sequential reference by %g (tolerance %g)", app, worst, tol)
		}
		whole.Close()
		if want.Checksum == "" || want.MaxClock <= 0 || (want.Residual != 0) != (app == "mgcfd") {
			t.Errorf("%s: degenerate outcome %+v", app, want)
		}

		ring, err := checkpoint.NewRing(checkpoint.Spec{Every: 1, Path: t.TempDir() + "/ck.bin", Keep: 2})
		if err != nil {
			t.Fatal(err)
		}
		short := *r
		short.Spec.Iters = 2
		short.Parallel = true
		first, _ := run(&short, nil, ring)
		first.Close()
		st, _, _, _ := ring.RecoverNewest()
		if st == nil {
			t.Fatalf("%s: no generation to resume from", app)
		}
		resumed, got := run(r, st, nil)
		resumed.Close()
		if resumed.Start != 2 {
			t.Errorf("%s: resumed at iteration %d, want 2", app, resumed.Start)
		}
		if got.Checksum != want.Checksum || got.Residual != want.Residual || got.MaxClock != want.MaxClock {
			t.Errorf("%s: resumed (%s, %g, %g), uninterrupted (%s, %g, %g)", app,
				got.Checksum, got.Residual, got.MaxClock, want.Checksum, want.Residual, want.MaxClock)
		}
	}
}

// TestSeqBackend: the sequential reference builds no cluster backend and
// still drives and reports a residual.
func TestSeqBackend(t *testing.T) {
	s := small("mgcfd")
	s.Backend = "seq"
	r, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.NewProblem()
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.BuildFrom(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Drive(nil); err != nil {
		t.Fatal(err)
	}
	if out := a.Outcome(); a.CB != nil || out.Residual == 0 || out.Checksum != "" {
		t.Errorf("seq attempt: CB %v, outcome %+v", a.CB, out)
	}
	if !strings.HasPrefix(a.Describe, "mesh: ") {
		t.Errorf("Describe() = %q", a.Describe)
	}
}
