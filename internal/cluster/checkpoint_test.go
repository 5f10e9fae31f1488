package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"op2ca/internal/chaincfg"
	"op2ca/internal/checkpoint"
	"op2ca/internal/core"
	"op2ca/internal/faults"
	"op2ca/internal/machine"
	"op2ca/internal/mesh"
	"op2ca/internal/obs"
	"op2ca/internal/partition"
)

// ckptWorkload builds the deterministic chain workload the checkpoint tests
// run: a fixed random loop sequence over the rotor mesh (integer-valued
// data, so float64 results are exact and checksums are meaningful bitwise).
type ckptWorkload struct {
	app   *propApp
	loops []core.Loop
}

func newCkptWorkload(m *mesh.FV3D, seed int64, nloops int) ckptWorkload {
	app := newPropApp(m)
	rng := rand.New(rand.NewSource(seed))
	loops := make([]core.Loop, nloops)
	for i := range loops {
		loops[i] = app.randomLoop(rng)
	}
	return ckptWorkload{app: app, loops: loops}
}

// run executes chain repetitions [from, to).
func (w ckptWorkload) run(b *Backend, from, to int) {
	for it := from; it < to; it++ {
		b.ChainBegin("prop")
		for _, l := range w.loops {
			b.ParLoop(l)
		}
		b.ChainEnd()
	}
}

// TestCheckpointRoundTrip is the restore-invariant property test: snapshot
// mid-run under every backend mode, restore into a fresh process-equivalent
// backend, and the completed run must be bitwise identical to the
// uninterrupted one — dat checksums, virtual clocks and fault/plan-cache
// counters, in every mode.
func TestCheckpointRoundTrip(t *testing.T) {
	const (
		seed   = 42
		nloops = 4
		iters  = 6
		cut    = 3 // checkpoint after this many repetitions
		nparts = 3
	)
	m := mesh.Rotor(6, 5, 4)
	assign := partition.KWay(m.NodeAdjacency(), nparts)
	modes := []struct {
		name string
		mut  func(*Config)
	}{
		{"op2", func(c *Config) { c.CA = false }},
		{"ca", func(c *Config) {}},
		{"ca-parallel", func(c *Config) { c.Parallel = true }},
		{"ca-ungrouped", func(c *Config) { c.NoGroupedMsgs = true }},
		{"ca-autotune", func(c *Config) { c.AutoTune = true }},
		{"ca-overlap", func(c *Config) { c.Overlap = true }},
	}
	plans := []struct {
		name string
		plan *faults.Plan
	}{
		{"clean", nil},
		{"faulted", faults.MustParse("drop=0.05,delay=3x@0.1,seed=7")},
	}
	for _, mode := range modes {
		for _, pl := range plans {
			t.Run(mode.name+"/"+pl.name, func(t *testing.T) {
				mkCfg := func(w ckptWorkload) Config {
					cfg := Config{
						Prog: w.app.p, Primary: w.app.nodes, Assign: assign, NParts: nparts,
						Depth: nloops + 1, MaxChainLen: nloops, CA: true, Faults: pl.plan,
					}
					mode.mut(&cfg)
					return cfg
				}

				// Uninterrupted reference run.
				cleanW := newCkptWorkload(m, seed, nloops)
				clean, err := New(mkCfg(cleanW))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(clean.Close)
				cleanW.run(clean, 0, iters)
				wantSum := clean.ChecksumDats()
				wantClock := clean.MaxClock()
				wantFaults := clean.Stats().Faults
				wantH, wantM, wantI := clean.PlanCacheStats()

				// Interrupted run: snapshot at the cut, then throw the
				// backend away.
				firstW := newCkptWorkload(m, seed, nloops)
				first, err := New(mkCfg(firstW))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(first.Close)
				firstW.run(first, 0, cut)
				var snap bytes.Buffer
				if err := first.Checkpoint(&snap, "cut"); err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
				if ck := first.Stats().Ckpt; ck.Checkpoints != 1 || ck.CheckpointBytes != int64(snap.Len()) {
					t.Errorf("CkptStats = %+v, want 1 checkpoint of %d bytes", ck, snap.Len())
				}

				// Restore into a fresh process-equivalent backend and finish.
				resumedW := newCkptWorkload(m, seed, nloops)
				resumed, note, err := Restore(bytes.NewReader(snap.Bytes()), mkCfg(resumedW))
				if err != nil {
					t.Fatalf("restore: %v", err)
				}
				t.Cleanup(resumed.Close)
				if note != "cut" {
					t.Errorf("note = %q, want %q", note, "cut")
				}
				resumedW.run(resumed, cut, iters)

				if got := resumed.ChecksumDats(); got != wantSum {
					t.Errorf("checksums diverge: resumed %s, uninterrupted %s", got, wantSum)
				}
				if resumed.Stats().Ckpt.Restores != 1 {
					t.Errorf("Restores = %d, want 1", resumed.Stats().Ckpt.Restores)
				}
				if got := resumed.MaxClock(); got != wantClock {
					t.Errorf("virtual clock diverges: resumed %v, uninterrupted %v", got, wantClock)
				}
				if got := resumed.Stats().Faults; got != wantFaults {
					t.Errorf("FaultStats diverge: resumed %+v, uninterrupted %+v", got, wantFaults)
				}
				gotH, gotM, gotI := resumed.PlanCacheStats()
				if gotH != wantH || gotM != wantM || gotI != wantI {
					t.Errorf("PlanCacheStats diverge: resumed %d/%d/%d, uninterrupted %d/%d/%d",
						gotH, gotM, gotI, wantH, wantM, wantI)
				}
			})
		}
	}
}

// TestCrashDeterministicAndResume: crash=rankN@E kills the run at exactly
// exchange E on every invocation, and crash -> restore-from-last-checkpoint
// -> completion reproduces the uninterrupted run's checksums bitwise.
func TestCrashDeterministicAndResume(t *testing.T) {
	const (
		seed   = 11
		nloops = 3
		iters  = 6
		nparts = 3
	)
	m := mesh.Rotor(6, 5, 4)
	assign := partition.KWay(m.NodeAdjacency(), nparts)
	mkCfg := func(w ckptWorkload, plan *faults.Plan) Config {
		return Config{
			Prog: w.app.p, Primary: w.app.nodes, Assign: assign, NParts: nparts,
			Depth: nloops + 1, MaxChainLen: nloops, CA: true, Faults: plan,
		}
	}

	// Uninterrupted, fault-free reference.
	cleanW := newCkptWorkload(m, seed, nloops)
	clean, err := New(mkCfg(cleanW, nil))
	if err != nil {
		t.Fatal(err)
	}
	cleanW.run(clean, 0, iters)
	wantSum := clean.ChecksumDats()

	plan := faults.MustParse("crash=rank1@3,seed=3")
	crashRun := func() (lastCkpt []byte, done int, crash *faults.CrashError) {
		w := newCkptWorkload(m, seed, nloops)
		b, err := New(mkCfg(w, plan))
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					c, ok := r.(*faults.CrashError)
					if !ok {
						panic(r)
					}
					crash = c
				}
			}()
			for it := 0; it < iters; it++ {
				w.run(b, it, it+1)
				var buf bytes.Buffer
				if err := b.Checkpoint(&buf, fmt.Sprintf("%d", it+1)); err != nil {
					t.Fatal(err)
				}
				lastCkpt = buf.Bytes()
				done = it + 1
			}
		}()
		return lastCkpt, done, crash
	}

	ck1, done1, crash1 := crashRun()
	if crash1 == nil {
		t.Fatal("crash plan did not fire; pick a smaller exchange number")
	}
	if crash1.Rank != 1 || crash1.Exchange != 3 {
		t.Fatalf("crashed at rank %d exchange %d, want rank 1 exchange 3", crash1.Rank, crash1.Exchange)
	}
	if !strings.Contains(crash1.Error(), "rank 1") {
		t.Errorf("CrashError message %q should name the rank", crash1.Error())
	}
	ck2, done2, crash2 := crashRun()
	if crash2 == nil || *crash2 != *crash1 || done2 != done1 {
		t.Fatalf("crash not deterministic: first (%+v after %d), second (%+v after %d)",
			crash1, done1, crash2, done2)
	}
	if !bytes.Equal(ck1, ck2) {
		t.Fatal("checkpoints of two identical crashed runs differ")
	}
	if done1 >= iters {
		t.Fatalf("crash fired after all %d iterations; pick a smaller exchange number", iters)
	}

	// Resume from the last checkpoint without any fault plan (the crash
	// clause is normalised out of the fingerprint) and finish the run.
	resumedW := newCkptWorkload(m, seed, nloops)
	resumed, note, err := Restore(bytes.NewReader(ck1), mkCfg(resumedW, nil))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	var resumeFrom int
	if _, err := fmt.Sscanf(note, "%d", &resumeFrom); err != nil || resumeFrom != done1 {
		t.Fatalf("note %q, want %d", note, done1)
	}
	resumedW.run(resumed, resumeFrom, iters)
	if got := resumed.ChecksumDats(); got != wantSum {
		t.Errorf("crash/restore checksums %s, uninterrupted %s", got, wantSum)
	}

	// Resuming with the crash plan still present must not re-fire: the
	// restored backend is disarmed, and the fingerprint treats a crash-only
	// plan as no plan at all.
	armedW := newCkptWorkload(m, seed, nloops)
	armed, _, err := Restore(bytes.NewReader(ck1), mkCfg(armedW, plan))
	if err != nil {
		t.Fatalf("restore with crash plan: %v", err)
	}
	armedW.run(armed, resumeFrom, iters)
	if got := armed.ChecksumDats(); got != wantSum {
		t.Errorf("disarmed resume checksums %s, uninterrupted %s", got, wantSum)
	}
}

// TestCheckpointFingerprintMismatch: restoring a snapshot under a different
// configuration must be refused, not silently resumed.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	const nloops = 2
	m := mesh.Rotor(6, 5, 4)
	assign := partition.Block(m.NNodes, 2)
	w := newCkptWorkload(m, 1, nloops)
	cfg := Config{Prog: w.app.p, Primary: w.app.nodes, Assign: assign, NParts: 2,
		Depth: nloops + 1, MaxChainLen: nloops, CA: true}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.run(b, 0, 2)
	var snap bytes.Buffer
	if err := b.Checkpoint(&snap, ""); err != nil {
		t.Fatal(err)
	}
	other := newCkptWorkload(m, 1, nloops)
	badCfg := cfg
	badCfg.Prog = other.app.p
	badCfg.Primary = other.app.nodes
	badCfg.Depth = nloops + 2
	if _, _, err := Restore(bytes.NewReader(snap.Bytes()), badCfg); err == nil ||
		!strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("restore under different depth = %v, want fingerprint mismatch", err)
	}
	// The delivery mode is part of the fingerprint: a bulk snapshot must
	// not restore into an overlapped config (clock arithmetic would change
	// mid-run without the stats reflecting it).
	ovW := newCkptWorkload(m, 1, nloops)
	ovCfg := cfg
	ovCfg.Prog = ovW.app.p
	ovCfg.Primary = ovW.app.nodes
	ovCfg.Overlap = true
	if _, _, err := Restore(bytes.NewReader(snap.Bytes()), ovCfg); err == nil ||
		!strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("restore under different delivery mode = %v, want fingerprint mismatch", err)
	}
	// Host threading is not: a snapshot taken on one host thread resumes
	// under a worker pool and finishes where the uninterrupted run does.
	w.run(b, 2, 4)
	parW := newCkptWorkload(m, 1, nloops)
	parCfg := cfg
	parCfg.Prog = parW.app.p
	parCfg.Primary = parW.app.nodes
	parCfg.Parallel = true
	par, _, err := Restore(bytes.NewReader(snap.Bytes()), parCfg)
	if err != nil {
		t.Fatalf("restore of a serial snapshot under Parallel: %v", err)
	}
	defer par.Close()
	parW.run(par, 2, 4)
	if got, want := par.ChecksumDats(), b.ChecksumDats(); got != want || par.MaxClock() != b.MaxClock() {
		t.Errorf("serial snapshot resumed under Parallel: checksum %s clock %g, uninterrupted %s %g",
			got, par.MaxClock(), want, b.MaxClock())
	}
}

// TestCheckpointInsideChainRefused: there is no mid-chain state a restore
// could resume into.
func TestCheckpointInsideChainRefused(t *testing.T) {
	m := mesh.Rotor(6, 5, 4)
	w := newCkptWorkload(m, 1, 2)
	b, err := New(Config{Prog: w.app.p, Primary: w.app.nodes,
		Assign: partition.Block(m.NNodes, 2), NParts: 2, Depth: 3, MaxChainLen: 2, CA: true})
	if err != nil {
		t.Fatal(err)
	}
	b.ChainBegin("open")
	var buf bytes.Buffer
	if err := b.Checkpoint(&buf, ""); err == nil || !strings.Contains(err.Error(), "open chain") {
		t.Fatalf("Checkpoint inside chain = %v, want open-chain error", err)
	}
}

// TestFingerprintCoversConfig holds the fingerprint to its rule: every
// Config field is in it unless tagged `json:"-"`, and of the tagged ones the
// host-side four are not in it at all while the others are, through their
// renderings. Each exported field — and each field of the machine it points
// to, GPU device included — is perturbed on its own.
func TestFingerprintCoversConfig(t *testing.T) {
	m := mesh.Rotor(6, 5, 4)
	w := newCkptWorkload(m, 1, 2)
	other := newPropApp(mesh.Rotor(7, 5, 4))
	chains, err := chaincfg.ParseString("chain prop\nloop l0 he=1\n")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Prog: w.app.p, Primary: w.app.nodes, Assign: partition.Block(m.NNodes, 2), NParts: 2,
		Depth: 3, MaxChainLen: 2, CA: true, Machine: machine.Cirrus()}
	fingerprint := func() string {
		t.Helper()
		fp, err := (&Backend{cfg: cfg, maxRetries: 4}).configFingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return string(fp)
	}
	base := fingerprint()
	covered := func(path string) {
		if fingerprint() == base {
			t.Errorf("%s: changing it leaves the fingerprint as it was", path)
		}
	}
	v := reflect.ValueOf(&cfg).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, field := v.Type().Field(i), v.Field(i)
		if f.Tag.Get("json") != "-" {
			perturb(t, field, f.Name, covered)
			continue
		}
		old := reflect.New(field.Type()).Elem()
		old.Set(field)
		host := false
		switch f.Name {
		case "Parallel":
			cfg.Parallel, host = true, true
		case "Slabs":
			cfg.Slabs, host = &Lender{}, true
		case "Layouts":
			lay, err := NewLayouts(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Layouts, host = lay, true
		case "Tracer":
			cfg.Tracer, host = obs.New(), true
		case "Prog":
			cfg.Prog = other.p
		case "Primary":
			cfg.Primary = w.app.edges
		case "Assign":
			cfg.Assign = slices.Clone(cfg.Assign)
			cfg.Assign[0] = 1 - cfg.Assign[0]
		case "Chains":
			cfg.Chains = chains
		case "Faults":
			cfg.Faults = faults.MustParse("crash=rank0@5,seed=1")
			if fingerprint() != base {
				t.Error("Faults: a crash-only plan changes the fingerprint")
			}
			cfg.Faults = faults.MustParse("drop=0.01,seed=1")
		default:
			t.Errorf("%s is tagged out of the fingerprint but is neither host-side nor rendered", f.Name)
			continue
		}
		if host && fingerprint() != base {
			t.Errorf("%s is host-side, yet changing it changes the fingerprint", f.Name)
		} else if !host {
			covered(f.Name)
		}
		field.Set(old)
	}
	if fingerprint() != base {
		t.Fatal("the perturbations were not undone")
	}

	// What the reflection walk perturbs holds for the restore: a snapshot is
	// refused on a machine that prices anything differently.
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	w.run(b, 0, 2)
	var snap bytes.Buffer
	if err := b.Checkpoint(&snap, ""); err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.Decode(&snap)
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*machine.Machine){
		"same machine":       func(*machine.Machine) {},
		"GPU.LaunchOverhead": func(m *machine.Machine) { m.GPU.LaunchOverhead *= 2 },
		"FlopRate":           func(m *machine.Machine) { m.FlopRate *= 2 },
	} {
		rw := newCkptWorkload(m, 1, 2)
		rc := cfg
		rc.Prog, rc.Primary, rc.Machine = rw.app.p, rw.app.nodes, machine.Cirrus()
		mut(rc.Machine)
		r, err := RestoreState(st, rc)
		var se *SnapshotError
		switch {
		case name == "same machine" && err != nil:
			t.Errorf("restore on the snapshot's own machine: %v", err)
		case name != "same machine" && (!errors.As(err, &se) || se.Kind != ErrSnapshotConfig):
			t.Errorf("restore on a machine whose %s differs = %v, want ErrSnapshotConfig", name, err)
		}
		if r != nil {
			r.Close()
		}
	}
}

// perturb calls f once per leaf of v — v itself, or the fields of the struct
// it is or points to — with that leaf changed and the rest as it was; the
// leaf is restored before the next.
func perturb(t *testing.T, v reflect.Value, path string, f func(path string)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
		f(path)
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
		f(path)
		v.SetInt(v.Int() - 1)
	case reflect.Float64:
		old := v.Float()
		v.SetFloat(2*old + 1)
		f(path)
		v.SetFloat(old)
	case reflect.String:
		old := v.String()
		v.SetString(old + "'")
		f(path)
		v.SetString(old)
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
			f(path)
			v.SetZero()
			return
		}
		perturb(t, v.Elem(), path, f)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			perturb(t, v.Field(i), path+"."+v.Type().Field(i).Name, f)
		}
	default:
		t.Errorf("%s: no perturbation for a %s", path, v.Kind())
	}
}

// TestRestoreAllocatesNoSnapshot: a restore streams the dats section into the
// storage of the backend it builds, so what it allocates does not grow with
// the snapshot — read in one pass from bytes (Restore), or, as a service's
// restart reads it, from a ring generation recovered without its dats
// (RecoverNewest, then RestoreState). On a warm lender and shared layouts,
// which make the build itself independent of the mesh, a restore on a mesh
// eight times larger allocates less than a sixteenth of the snapshot's growth
// more; decoding the snapshot first would add all of it.
func TestRestoreAllocatesNoSnapshot(t *testing.T) {
	type cost struct{ snap, oneShot, ring float64 }
	measure := func(m *mesh.FV3D) cost {
		w := newCkptWorkload(m, 5, 2)
		cfg := Config{Prog: w.app.p, Primary: w.app.nodes, Assign: partition.Block(m.NNodes, 4), NParts: 4,
			Depth: 3, MaxChainLen: 2, CA: true, Slabs: new(Lender)}
		var err error
		if cfg.Layouts, err = NewLayouts(cfg); err != nil {
			t.Fatal(err)
		}
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.run(b, 0, 2)
		var snap bytes.Buffer
		err = b.Checkpoint(&snap, "k")
		b.Close()
		if err != nil {
			t.Fatal(err)
		}
		ring, err := checkpoint.NewRing(checkpoint.Spec{Every: 1, Path: filepath.Join(t.TempDir(), "ck"), Keep: 1})
		if err == nil {
			_, err = ring.Write(func(w io.Writer) error { _, err := w.Write(snap.Bytes()); return err })
		}
		if err == nil {
			err = ring.Flush()
		}
		if err != nil {
			t.Fatal(err)
		}
		// The fewest bytes of eight restores after one that warms the lender:
		// under the race detector the codec's buffer pool drops a quarter of
		// what is put back, which a mean would count.
		perRestore := func(restore func() (*Backend, error)) float64 {
			t.Helper()
			least := math.Inf(1)
			for i := -1; i < 8; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b, err := restore()
				if err != nil {
					t.Fatal(err)
				}
				b.Close()
				runtime.ReadMemStats(&after)
				if i >= 0 {
					least = min(least, float64(after.TotalAlloc-before.TotalAlloc))
				}
			}
			return least
		}
		return cost{
			snap: float64(snap.Len()),
			oneShot: perRestore(func() (*Backend, error) {
				b, _, err := Restore(bytes.NewReader(snap.Bytes()), cfg)
				return b, err
			}),
			ring: perRestore(func() (*Backend, error) {
				st, _, _, _ := ring.RecoverNewest()
				if st == nil {
					return nil, errors.New("the ring lost its generation")
				}
				return RestoreState(st, cfg)
			}),
		}
	}
	small, large := measure(mesh.Rotor(10, 8, 6)), measure(mesh.Rotor(20, 16, 12))
	t.Logf("snapshot %.0f -> %.0f B; per restore, in one pass %.0f -> %.0f B, from the ring %.0f -> %.0f B",
		small.snap, large.snap, small.oneShot, large.oneShot, small.ring, large.ring)
	limit := (large.snap - small.snap) / 16
	if large.snap < 4*small.snap {
		t.Fatalf("the snapshot grew from %.0f to %.0f B only: nothing to tell apart", small.snap, large.snap)
	}
	if g := large.oneShot - small.oneShot; g > limit {
		t.Errorf("a restore in one pass allocates %.0f B more on the larger mesh, want under %.0f", g, limit)
	}
	if g := large.ring - small.ring; g > limit {
		t.Errorf("a restore from the ring allocates %.0f B more on the larger mesh, want under %.0f", g, limit)
	}
}
