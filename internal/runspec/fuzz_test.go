package runspec

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzResolve feeds Resolve the run grammar as it arrives from outside — a
// JSON-encoded Spec, the shape a served JobSpec and the op2ca-run flags fold
// into — seeded from the table tests above. Whatever the text, Resolve
// returns: a malformed name or embedded chain file, fault plan or supervise
// spec ends in its parser's error, never in a runtime abort. An accepted
// spec resolves to at least the paper's two halo shells on a known machine
// with every size in range — a mesh, no negative count, a rank to run on
// unless the backend is seq — and its normalised form is a fixed point:
// resolving r.Spec again gives an identical Run, so a description echoed
// back by the service means the same run when resubmitted.
func FuzzResolve(f *testing.F) {
	seeds := []Spec{small("mgcfd"), small("hydra")}
	for _, mut := range []func(*Spec){
		func(s *Spec) { s.App = "nekbone" },
		func(s *Spec) { s.Backend = "mpi" },
		func(s *Spec) { s.Machine = "cray" },
		func(s *Spec) { s.Partitioner = "metis" },
		func(s *Spec) { s.Levels = 2 },
		func(s *Spec) { s.Safe = true },
		func(s *Spec) { s.Safe, s.Chains = true, "chain gradl maxhe=4\n" },
		func(s *Spec) { s.Chains = "loop orphan he=1\n" },
		func(s *Spec) { s.Chains = "chain gradl maxhe=1\n" },
		func(s *Spec) { s.Chains = "chain gradl maxhe=2\n  loop edgecon he=3\n  loop period he=1\n" },
		func(s *Spec) { s.Faults = "drop=2" },
		func(s *Spec) { s.Faults, s.Supervise = "drop=NaN", "backoff=NaN" }, // NaN compares false against any bound
		func(s *Spec) { s.Faults, s.Supervise = "drop=0.01,crash=rank1@30,seed=3", "budget=2" },
		func(s *Spec) { s.Supervise = "budget=-1" },
		func(s *Spec) { s.Supervise, s.CheckpointEvery = "on,watchdog=50", 2 },
		func(s *Spec) { s.MeshNodes = -5 },
		func(s *Spec) { s.Iters, s.CheckpointEvery = -1, -1 },
		func(s *Spec) { s.Ranks = 0 },
		func(s *Spec) { s.Backend, s.Ranks = "seq", 0 },
	} {
		s := small("hydra")
		mut(&s)
		seeds = append(seeds, s)
	}
	for _, s := range seeds {
		text, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text []byte) {
		var s Spec
		if json.Unmarshal(text, &s) != nil {
			return
		}
		r, err := s.Resolve()
		if err != nil {
			return
		}
		if r.Depth < 2 || r.Machine == nil {
			t.Fatalf("%+v resolved to depth %d on machine %v", s, r.Depth, r.Machine)
		}
		if s.MeshNodes < 1 || s.Iters < 0 || s.Levels < 0 || s.NChains < 0 || s.CheckpointEvery < 0 ||
			(s.Backend != "seq" && s.Ranks < 1) {
			t.Fatalf("%+v resolved: a size out of range was accepted", s)
		}
		again, err := r.Spec.Resolve()
		if err != nil {
			t.Fatalf("%+v resolved, its normalised form %+v does not: %v", s, r.Spec, err)
		}
		if !reflect.DeepEqual(r, again) {
			t.Fatalf("normalised form is not a fixed point:\nfirst  %+v\nsecond %+v", r, again)
		}
	})
}
