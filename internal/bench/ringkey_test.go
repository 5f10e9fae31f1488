package bench

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"op2ca/internal/checkpoint"
	"op2ca/internal/cluster"
	"op2ca/internal/faults"
	"op2ca/internal/leakcheck"
	"op2ca/internal/obs"
	"op2ca/internal/supervise"
)

// TestRingSpecKeysPathByWorkload is the regression test for the stale-ring
// adoption bug: op2ca-bench resumes by default from a leftover ring, so two
// invocations whose results differ must never share a ring path, while a
// supervised rerun (same workload plus crash clauses) must share one.
func TestRingSpecKeysPathByWorkload(t *testing.T) {
	base := checkpoint.Spec{Every: 1, Path: "ck.bin", Keep: 3}
	a := Quick()
	keyed := a.RingSpec(base)
	if !strings.HasPrefix(keyed.Path, "ck.bin.") || keyed.Path == base.Path {
		t.Fatalf("keyed path %q should extend the configured path", keyed.Path)
	}
	if keyed.Every != base.Every || keyed.Keep != base.Keep {
		t.Errorf("keying must not change cadence/retention: %+v", keyed)
	}

	// Same workload -> same path (deterministic across invocations).
	if again := a.RingSpec(base); again.Path != keyed.Path {
		t.Errorf("same config keyed to %q then %q", keyed.Path, again.Path)
	}

	// Differing workloads -> different paths.
	for _, mut := range []struct {
		name string
		mut  func(*Config)
	}{
		{"iters", func(c *Config) { c.Iters++ }},
		{"nodes8m", func(c *Config) { c.Nodes8M *= 2 }},
		{"nodes24m", func(c *Config) { c.Nodes24M *= 2 }},
		{"rankscale", func(c *Config) { c.RankScale *= 2 }},
		{"autotune", func(c *Config) { c.AutoTune = !c.AutoTune }},
		{"overlap", func(c *Config) { c.Overlap = !c.Overlap }},
		{"faults", func(c *Config) { c.Faults = faults.MustParse("drop=0.01,seed=3") }},
	} {
		b := Quick()
		mut.mut(&b)
		if got := b.RingSpec(base); got.Path == keyed.Path {
			t.Errorf("%s change kept ring path %q", mut.name, got.Path)
		}
	}

	// Crash clauses are stripped: the supervised rerun of a crashed
	// invocation extends the crash schedule but must adopt the same ring.
	crashed := Quick()
	crashed.Faults = faults.MustParse("crash=rank0@150,seed=1")
	rerun := Quick()
	rerun.Faults = faults.MustParse("crash=rank0@150,crash=rank1@50,seed=1")
	cp, rp := crashed.RingSpec(base).Path, rerun.RingSpec(base).Path
	if cp != rp {
		t.Errorf("crash-schedule change moved the ring: %q vs %q", cp, rp)
	}
	if clean := Quick().RingSpec(base).Path; clean != cp {
		t.Errorf("crash-only plan keyed differently from no plan: %q vs %q", cp, clean)
	}
	// Parallel never changes results; it must not move the ring either.
	serial := Quick()
	serial.Parallel = false
	if sp := serial.RingSpec(base).Path; sp != keyed.Path {
		t.Errorf("-serial moved the ring: %q vs %q", sp, keyed.Path)
	}

	// End to end: a ring written under workload A is invisible to workload
	// B — B's keyed path starts a fresh, empty ring.
	dir := t.TempDir()
	onDisk := checkpoint.Spec{Every: 1, Path: filepath.Join(dir, "ck.bin"), Keep: 3}
	ringA, err := checkpoint.NewRing(a.RingSpec(onDisk))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ringA.Write(func(w io.Writer) error {
		_, err := checkpoint.Encode(w, &checkpoint.State{Note: "label=mgcfd,iter=3"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if gens := ringA.Generations(); len(gens) != 1 {
		t.Fatalf("workload A ring = %v gens; want 1", gens)
	}
	b := Quick()
	b.Iters++
	ringB, err := checkpoint.NewRing(b.RingSpec(onDisk))
	if err != nil {
		t.Fatal(err)
	}
	if gens := ringB.Generations(); len(gens) != 0 {
		t.Errorf("workload B adopted %d generations from workload A's ring", len(gens))
	}
}

// TestRingKeyAgreesWithRestoreFingerprint ties the ring key to the
// cluster-level checkpoint fingerprint, which decide the same question —
// may this invocation continue that one's snapshot — at two levels. Every
// knob RingSpec ignores must be one a restore tolerates: a crashed
// invocation's ring is adopted and *restored* under the changed knob, and
// the run finishes with the uninterrupted run's checksums. Every knob it
// keys on starts an empty ring — and where the cluster fingerprint covers
// the knob too, adopting the old ring anyway is what the key prevents: the
// restore is refused.
func TestRingKeyAgreesWithRestoreFingerprint(t *testing.T) {
	defer leakcheck.Check(t)()
	base := Config{Nodes8M: 2000, Nodes24M: 6000, RankScale: 0.006, Iters: 3}
	// run executes one MG-CFD point (an OP2 leg, then a CA leg) and
	// reports each leg's final checksum, how many legs were restored from
	// a snapshot, and the OP2 leg's exchange count.
	run := func(c Config) (sums map[string]string, restores int64, op2Exchanges uint64) {
		sums = map[string]string{}
		c.Observe = func(label string, b *cluster.Backend) {
			sums[label] = b.ChecksumDats()
			restores += b.Stats().Ckpt.Restores
			if strings.HasPrefix(label, "mgcfd op2") {
				op2Exchanges = b.ExchangeSeq()
			}
		}
		c.runMGPoint(c.Nodes8M, 4, 1, archer())
		return sums, restores, op2Exchanges
	}
	// write runs c to its keyed ring under dir and returns the newest
	// generation left behind.
	write := func(c Config, dir string) *checkpoint.State {
		t.Helper()
		ring, err := checkpoint.NewRing(c.RingSpec(checkpoint.Spec{Every: 1, Path: filepath.Join(dir, "ck.bin"), Keep: 3}))
		if err != nil {
			t.Fatal(err)
		}
		c.Ring = ring
		if crash := supervise.CatchCrash(func() { run(c) }); (crash != nil) != (c.Faults != nil) {
			t.Fatalf("run under plan %v ended with crash %v", c.Faults, crash)
		}
		st, _, _, _ := ring.RecoverNewest()
		if st == nil {
			t.Fatal("no generation left behind")
		}
		return st
	}
	want, _, total := run(base)
	if len(want) != 2 || total < 8 {
		t.Fatalf("degenerate reference run: %v, %d exchanges", want, total)
	}
	// Dies in the OP2 leg after the warm-up and at least one measured
	// iteration, before the last.
	crashed := base
	crashed.Faults = faults.MustParse(fmt.Sprintf("crash=rank0@%d,seed=1", total*5/8))

	for _, tc := range []struct {
		name string
		mut  func(*Config, *checkpoint.Spec)
	}{
		{"parallel", func(c *Config, _ *checkpoint.Spec) { c.Parallel = true }},
		{"crash-clauses", func(c *Config, _ *checkpoint.Spec) {
			c.Faults = faults.MustParse(fmt.Sprintf("crash=rank0@%d,crash=rank1@%d,seed=1", total*5/8, 1000*total))
			// As the supervisor arms a rerun: the fired clause stays off.
			c.Sup = supervise.NewSupervisor(supervise.Spec{Enabled: true, Budget: 1}, c.Faults, nil, nil)
			if err := c.Sup.OnFailure(&faults.CrashError{Rank: 0, Exchange: total * 5 / 8}); err != nil {
				t.Fatal(err)
			}
		}},
		{"cadence-retention", func(_ *Config, s *checkpoint.Spec) { s.Every, s.Keep = 2, 5 }},
		{"tracer", func(c *Config, _ *checkpoint.Spec) { c.Tracer = obs.New() }},
	} {
		dir := t.TempDir()
		write(crashed, dir)
		b, spec := base, checkpoint.Spec{Every: 1, Path: filepath.Join(dir, "ck.bin"), Keep: 3}
		tc.mut(&b, &spec)
		ring, err := checkpoint.NewRing(b.RingSpec(spec))
		if err != nil {
			t.Fatal(err)
		}
		st, _, _, _ := ring.RecoverNewest()
		if st == nil {
			t.Errorf("%s: the crashed invocation's ring was not adopted", tc.name)
			continue
		}
		b.Resume, b.Ring = &Resume{State: st}, ring
		got, restores, _ := run(b)
		if restores != 1 {
			t.Errorf("%s: %d legs restored from the adopted ring, want 1", tc.name, restores)
		}
		for label, sum := range want {
			if got[label] != sum {
				t.Errorf("%s: %s finished with checksum %s, uninterrupted %s", tc.name, label, got[label], sum)
			}
		}
	}

	for _, tc := range []struct {
		name    string
		mut     func(*Config)
		refused bool // the cluster fingerprint covers the knob as well
	}{
		{"iters", func(c *Config) { c.Iters++ }, false},
		{"nodes8m", func(c *Config) { c.Nodes8M += 500 }, false},
		{"nodes24m", func(c *Config) { c.Nodes24M += 500 }, false},
		{"rankscale", func(c *Config) { c.RankScale *= 2 }, false},
		{"autotune", func(c *Config) { c.AutoTune = true }, true},
		{"overlap", func(c *Config) { c.Overlap = true }, true},
		{"faults", func(c *Config) { c.Faults = faults.MustParse("drop=0.01,seed=3") }, true},
	} {
		dir := t.TempDir()
		st := write(base, dir) // a completed invocation: the newest generation is the CA leg's last
		b := base
		tc.mut(&b)
		ring, err := checkpoint.NewRing(b.RingSpec(checkpoint.Spec{Every: 1, Path: filepath.Join(dir, "ck.bin"), Keep: 3}))
		if err != nil {
			t.Fatal(err)
		}
		if gens := ring.Generations(); len(gens) != 0 {
			t.Errorf("%s: changed workload starts with %d adopted generations, want an empty ring", tc.name, len(gens))
		}
		if !tc.refused {
			continue
		}
		b.Resume = &Resume{State: st}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "fingerprint mismatch") {
					t.Errorf("%s: adopting the old ring anyway ended with %v, want the restore refused", tc.name, r)
				}
			}()
			run(b)
		}()
	}
}
