package bench

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"op2ca/internal/checkpoint"
	"op2ca/internal/cluster"
	"op2ca/internal/faults"
	"op2ca/internal/leakcheck"
	"op2ca/internal/obs"
	"op2ca/internal/supervise"
)

// TestSupervisedRerunResumesByFingerprint is the property behind resuming an
// op2ca-bench invocation: a supervised rerun over the ring a crashed
// invocation left at its path, under one changed knob, ends with the
// checksums and table values of an uninterrupted run under that knob — and
// continues the crashed leg's snapshot exactly when the knob is host-side or
// crash-only. Every other knob changes what the leg computes, and the leg's
// restore refuses the snapshot (or its note, the iteration count).
func TestSupervisedRerunResumesByFingerprint(t *testing.T) {
	defer leakcheck.Check(t)()
	base := Config{Nodes8M: 2000, Nodes24M: 6000, RankScale: 0.006, Iters: 3}
	// run executes one MG-CFD point, an OP2 leg then a CA leg, and returns
	// its table values, each leg's final checksum, how many legs were
	// restored and the CA leg's exchange count.
	type outcome struct {
		pt          mgPoint
		sums        map[string]string
		restored    int
		caExchanges uint64
	}
	run := func(c Config) (o outcome) {
		o.sums = map[string]string{}
		c.Observe = func(label string, b *cluster.Backend) {
			o.sums[label] = b.ChecksumDats()
			if b.Stats().Ckpt.Restores > 0 {
				o.restored++
			}
			if strings.HasPrefix(label, "mgcfd ca") {
				o.caExchanges = b.ExchangeSeq()
			}
		}
		o.pt = c.runMGPoint(c.Nodes8M, 4, 1, archer())
		return o
	}
	ringAt := func(spec checkpoint.Spec) *checkpoint.Ring {
		t.Helper()
		ring, err := checkpoint.NewRing(spec)
		if err != nil {
			t.Fatal(err)
		}
		return ring
	}
	ref := run(base)
	if len(ref.sums) != 2 || ref.caExchanges < 8 {
		t.Fatalf("degenerate reference run: %v, %d CA exchanges", ref.sums, ref.caExchanges)
	}
	// The clause fires in the first leg that reaches the exchange, the OP2
	// one, which has more. So the crashed invocation is an operator's
	// -restore of that crash with the clause kept: the restored OP2 leg is
	// disarmed and finishes, and the fresh CA leg dies at the same exchange —
	// after its warm-up and a measured iteration, before its last.
	crash := faults.MustParse(fmt.Sprintf("crash=rank0@%d,seed=1", ref.caExchanges*5/8))
	crashCA := func(spec checkpoint.Spec) {
		t.Helper()
		c := base
		c.Faults, c.Ring = crash, ringAt(spec)
		for attempt := 0; attempt < 2; attempt++ {
			if supervise.CatchCrash(func() { run(c) }) == nil {
				t.Fatalf("attempt %d of the crashed invocation did not crash", attempt)
			}
			st, _, _, _ := c.Ring.RecoverNewest()
			if st == nil {
				t.Fatalf("attempt %d of the crashed invocation left no generation", attempt)
			}
			c.Resume = &Resume{State: st}
		}
		if label := c.Resume.Label(); !strings.HasPrefix(label, "mgcfd ca") {
			t.Fatalf("the crashed invocation's newest generation is of %q, want its CA leg", label)
		}
	}

	for _, tc := range []struct {
		name     string
		mut      func(*Config, *checkpoint.Spec)
		restored bool
	}{
		{"parallel", func(c *Config, _ *checkpoint.Spec) { c.Parallel = true }, true},
		{"tracer", func(c *Config, _ *checkpoint.Spec) { c.Tracer = obs.New() }, true},
		{"crash-clauses", func(c *Config, _ *checkpoint.Spec) {
			c.Faults = faults.MustParse(fmt.Sprintf("crash=rank1@%d,seed=1", 1000*ref.caExchanges))
		}, true},
		{"cadence-retention", func(_ *Config, s *checkpoint.Spec) { s.Every, s.Keep = 2, 5 }, true},
		{"iters", func(c *Config, _ *checkpoint.Spec) { c.Iters++ }, false},
		{"nodes8m", func(c *Config, _ *checkpoint.Spec) { c.Nodes8M += 500 }, false},
		{"rankscale", func(c *Config, _ *checkpoint.Spec) { c.RankScale *= 2 }, false},
		{"autotune", func(c *Config, _ *checkpoint.Spec) { c.AutoTune = true }, false},
		{"overlap", func(c *Config, _ *checkpoint.Spec) { c.Overlap = true }, false},
		{"message-faults", func(c *Config, _ *checkpoint.Spec) { c.Faults = faults.MustParse("drop=0.01,seed=3") }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := checkpoint.Spec{Every: 1, Path: filepath.Join(t.TempDir(), "ck.bin"), Keep: 3}
			crashCA(spec)
			c := base
			tc.mut(&c, &spec)
			want := run(c)
			c.Ring = ringAt(spec)
			var got outcome
			runner := &supervise.Runner{
				Spec: supervise.Spec{Enabled: true, Budget: 1}, Plan: c.Faults, Ring: c.Ring,
				Body: func(st *checkpoint.State, s *supervise.Supervisor) error {
					c.Sup, c.Resume = s, nil
					if st != nil {
						c.Resume = &Resume{State: st}
					}
					got = run(c)
					return nil
				},
			}
			sup, err := runner.Run()
			if err != nil {
				t.Fatal(err)
			}
			if sv := sup.Stats(); sv.Restarts != 0 || sv.ColdStarts != 0 {
				t.Errorf("the rerun did not start from the crashed invocation's ring: %+v", sv)
			}
			if wantRestored := map[bool]int{true: 1}[tc.restored]; got.restored != wantRestored {
				t.Errorf("%d legs continued the crashed invocation's snapshot, want %d", got.restored, wantRestored)
			}
			if !reflect.DeepEqual(got.sums, want.sums) {
				t.Errorf("checksums %v, uninterrupted %v", got.sums, want.sums)
			}
			if got.pt != want.pt {
				t.Errorf("table values %+v, uninterrupted %+v", got.pt, want.pt)
			}
		})
	}
}

// TestEveryExperimentResumes: at a toy scale, every experiment resumed from
// the newest and from the second-newest generation of its own ring reports
// the uninterrupted invocation's rows, and some run of it continues the
// snapshot. Three experiments measure no checkpointed run and leave no
// generation: the two that inspect without running and the overlap study,
// which pins its knobs.
func TestEveryExperimentResumes(t *testing.T) {
	defer leakcheck.Check(t)()
	base := Config{Nodes8M: 600, Nodes24M: 1800, RankScale: 0.001, Iters: 2}
	uncheckpointed := map[string]bool{"table3-4": true, "halo-profile": true, "overlap": true}
	for _, name := range ExperimentOrder() {
		t.Run(name, func(t *testing.T) {
			experiment := Experiments()[name]
			c := base
			ring, err := checkpoint.NewRing(checkpoint.Spec{Every: 1, Path: filepath.Join(t.TempDir(), "ck.bin"), Keep: 2})
			if err != nil {
				t.Fatal(err)
			}
			c.Ring = ring
			want := experiment(c)
			if err := ring.Flush(); err != nil {
				t.Fatal(err)
			}
			gens := ring.Generations()
			if len(gens) != map[bool]int{false: 2}[uncheckpointed[name]] {
				t.Fatalf("%d generations left", len(gens))
			}
			for i, g := range gens {
				st, err := checkpoint.ReadFile(g.Path)
				if err != nil {
					t.Fatal(err)
				}
				r := base
				r.Resume = &Resume{State: st}
				got := experiment(r)
				if r.Resume.Adopted == 0 {
					t.Errorf("generation %d (%s): no run continued it", i, noteOf(st))
				}
				if !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Errorf("resumed from generation %d (%s):\n got %v\nwant %v", i, noteOf(st), got.Rows, want.Rows)
				}
			}
		})
	}
}

// noteOf renders a bench snapshot's resume point without its baseline.
func noteOf(st *checkpoint.State) string {
	var rp resumePoint
	if err := json.Unmarshal([]byte(st.Note), &rp); err != nil {
		return st.Note
	}
	return fmt.Sprintf("%s, %d of %d done", rp.Label, rp.Done, rp.Iters)
}
