package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"op2ca/internal/checkpoint"
	"op2ca/internal/core"
	"op2ca/internal/faults"
	"op2ca/internal/hydra"
	"op2ca/internal/leakcheck"
	"op2ca/internal/mesh"
	"op2ca/internal/mgcfd"
	"op2ca/internal/partition"
)

// snapRun is one instance of an application for the snapshot tests: its
// configuration (a fresh program per instance — loops reference dats by
// object), how to initialise and step it, and a dat no loop ever writes.
type snapRun struct {
	cfg      Config
	init     func(*Backend)
	step     func(*Backend)
	constant *core.Dat
}

// snapMode is an execution policy; chained says whether the app demarcates
// its chains (lazy mode queues bare loops instead).
type snapMode struct {
	name    string
	mut     func(*Config)
	chained bool
}

var snapModes = []snapMode{
	{"op2", func(c *Config) { c.CA = false }, false},
	{"ca", func(c *Config) {}, true},
	{"lazy", func(c *Config) { c.Lazy = true }, false},
	{"overlap", func(c *Config) { c.Overlap = true }, true},
	// The snapshot carries the tuner's calibration and committed decisions:
	// the resumed run must run, measure and re-plan them exactly as the
	// uninterrupted one does.
	{"autotune", func(c *Config) { c.AutoTune = true }, true},
}

// snapApps builds the two applications on one small mesh: MG-CFD (two
// multigrid levels plus the synthetic chain) and the Hydra proxy under the
// paper's chain configuration — once as the paper runs it, and once re-running
// the set-up chains (weight, period) every iteration: their configured
// extensions are shallower than ca.SafeAnalysis allows (DESIGN 5b.3), so the
// resumed run executes under-reaching chains too.
func snapApps() map[string]func(snapMode) snapRun {
	const nparts = 3
	m := mesh.RotorForNodes(900)
	h := mesh.NewHierarchy(m, 2, true)
	kway := partition.KWay(m.NodeAdjacency(), nparts)
	rib := partition.RIB(m.Coords, 3, nparts)
	return map[string]func(snapMode) snapRun{
		"mgcfd": func(mode snapMode) snapRun {
			app := mgcfd.New(h)
			syn := mgcfd.NewSynthetic(app)
			cfg := Config{Prog: app.Prog, Primary: app.Primary, Assign: kway, NParts: nparts,
				Depth: 2, MaxChainLen: 4, CA: true}
			mode.mut(&cfg)
			return snapRun{cfg: cfg,
				init:     func(b *Backend) { app.Init(b) },
				step:     func(b *Backend) { syn.Run(b, 2, mode.chained); app.Cycle(b) },
				constant: app.Levels[0].Volumes}
		},
		"hydra":            func(mode snapMode) snapRun { return snapHydra(m, rib, nparts, mode, false) },
		"hydra-underreach": func(mode snapMode) snapRun { return snapHydra(m, rib, nparts, mode, true) },
	}
}

func snapHydra(m *mesh.FV3D, assign partition.Assignment, nparts int, mode snapMode, underReach bool) snapRun {
	app := hydra.New(m)
	cfg := Config{Prog: app.Prog, Primary: app.Nodes, Assign: assign, NParts: nparts,
		Depth: 2, MaxChainLen: 6, CA: true, Chains: hydra.MustPaperConfig()}
	mode.mut(&cfg)
	return snapRun{cfg: cfg,
		init: func(b *Backend) { app.RunSetup(b, mode.chained) },
		step: func(b *Backend) {
			app.RunIteration(b, mode.chained)
			if underReach {
				app.RunWeight(b, mode.chained)
				app.RunPeriod(b, mode.chained)
			}
		},
		constant: app.Xp}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// haloInside calls f with every halo range of d on rank r that lies inside
// the dat's validity depth, as value offsets into the rank's local storage.
func (b *Backend) haloInside(r int, d *core.Dat, f func(lo, hi int)) {
	sl, v := b.layouts[r].SetL(d.Set), b.valid[d.ID]
	f(int(sl.ExecStart[0])*d.Dim, int(sl.ExecStart[v.exec])*d.Dim)
	f(int(sl.NonexecStart[0])*d.Dim, int(sl.NonexecStart[v.nonexec])*d.Dim)
}

// checkHaloInvariant asserts what a snapshot without halo copies rests on:
// every halo copy inside its dat's validity depth equals its owner's value
// bit for bit.
func checkHaloInvariant(t *testing.T, label string, b *Backend) {
	t.Helper()
	for _, d := range b.cfg.Prog.Dats {
		// ownerLoc[g] is the local index g has on the rank owning it.
		ownerLoc := make([]int, d.Set.Size)
		for r := range b.dats {
			sl := b.layouts[r].SetL(d.Set)
			for loc, g := range sl.L2G[:sl.NOwned] {
				ownerLoc[g] = loc
			}
		}
		for r := range b.dats {
			sl := b.layouts[r].SetL(d.Set)
			b.haloInside(r, d, func(lo, hi int) {
				for loc := lo / d.Dim; loc < hi/d.Dim; loc++ {
					g := sl.L2G[loc]
					o := int(b.owners[d.Set.ID][g])
					oloc := ownerLoc[g]
					got := b.dats[r][d.ID][loc*d.Dim : (loc+1)*d.Dim]
					want := b.dats[o][d.ID][oloc*d.Dim : (oloc+1)*d.Dim]
					if !sameBits(got, want) {
						t.Fatalf("%s: rank %d holds %v for %s element %d inside validity %+v, its owner (rank %d) %v",
							label, r, got, d.Name, g, b.valid[d.ID], o, want)
					}
				}
			})
		}
	}
}

// statsJSON renders the backend's stats with the checkpoint ledger cleared:
// it counts host I/O (snapshots written, restores), in which a resumed and an
// uninterrupted history legitimately differ.
func statsJSON(t *testing.T, b *Backend) string {
	t.Helper()
	st := *b.Stats()
	st.Ckpt = CkptStats{}
	raw, err := json.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// compareBackends asserts got is in the state want is in: owned values,
// clocks, validity, stats, and every halo copy inside its dat's validity
// depth, bit for bit.
func compareBackends(t *testing.T, label string, got, want *Backend) {
	t.Helper()
	if !sameBits(got.Clocks(), want.Clocks()) {
		t.Errorf("%s: clocks %v, want %v", label, got.clock, want.clock)
	}
	if !slices.Equal(got.valid, want.valid) {
		t.Errorf("%s: validity %v, want %v", label, got.valid, want.valid)
	}
	if !slices.Equal(got.written, want.written) {
		t.Errorf("%s: written %v, want %v", label, got.written, want.written)
	}
	if got.faultSeq != want.faultSeq {
		t.Errorf("%s: exchange sequence %d, want %d", label, got.faultSeq, want.faultSeq)
	}
	if g, w := statsJSON(t, got), statsJSON(t, want); g != w {
		t.Errorf("%s: stats diverge:\n got %s\nwant %s", label, g, w)
	}
	for i, d := range want.cfg.Prog.Dats {
		gd := got.cfg.Prog.Dats[i]
		for r := range want.dats {
			if !sameBits(got.owned(r, gd), want.owned(r, d)) {
				t.Errorf("%s: rank %d owned values of %s differ", label, r, d.Name)
			}
			want.haloInside(r, d, func(lo, hi int) {
				if !sameBits(got.dats[r][i][lo:hi], want.dats[r][i][lo:hi]) {
					t.Errorf("%s: rank %d halo copies of %s inside validity %+v differ", label, r, d.Name, want.valid[i])
				}
			})
		}
	}
}

// TestSnapshotEquivalence: a snapshot holds owned values of written dats
// only, and that is enough. For both applications under every execution
// policy: run to iteration k, snapshot, restore into a fresh backend, and the
// restored backend is in the uninterrupted one's state — owned values,
// clocks, validity, stats, and every halo copy inside its dat's validity
// depth, bit for bit (copies outside it are refilled from their owners where
// the uninterrupted run holds stale ones; nothing reads them before an
// exchange). Both then run to completion with equal checksums and clocks,
// and their final snapshots are the same bytes.
func TestSnapshotEquivalence(t *testing.T) {
	const k, iters = 2, 5
	for app, build := range snapApps() {
		for _, mode := range snapModes {
			t.Run(app+"/"+mode.name, func(t *testing.T) {
				u := build(mode)
				ref, err := New(u.cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer ref.Close()
				u.init(ref)
				for it := 0; it < k; it++ {
					u.step(ref)
				}
				var snap bytes.Buffer
				if err := ref.Checkpoint(&snap, "k"); err != nil {
					t.Fatal(err)
				}
				checkHaloInvariant(t, "uninterrupted at k", ref)
				if mode.name == "autotune" && len(ref.stats.AutoTune.Decisions) == 0 {
					t.Fatal("the tuner had not decided at the snapshot: it carries no decision to resume")
				}

				r := build(mode)
				res, note, err := Restore(bytes.NewReader(snap.Bytes()), r.cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer res.Close()
				if note != "k" {
					t.Errorf("note %q", note)
				}
				compareBackends(t, "restored at k", res, ref)
				checkHaloInvariant(t, "restored at k", res)

				for it := k; it < iters; it++ {
					u.step(ref)
					r.step(res)
				}
				compareBackends(t, "at completion", res, ref)
				checkHaloInvariant(t, "uninterrupted at completion", ref)
				if g, w := res.ChecksumDats(), ref.ChecksumDats(); g != w {
					t.Errorf("checksums: resumed %s, uninterrupted %s", g, w)
				}
				// The ledger of snapshots written and restores done is the one
				// thing the two histories differ in (statsJSON).
				res.stats.Ckpt = ref.stats.Ckpt
				var a, b bytes.Buffer
				if err := ref.Checkpoint(&a, "end"); err != nil {
					t.Fatal(err)
				}
				if err := res.Checkpoint(&b, "end"); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Errorf("final snapshots differ: uninterrupted %d bytes, resumed %d", a.Len(), b.Len())
				}
			})
		}
	}
}

// TestSnapshotSize: a snapshot's dats section is exactly the owned values of
// the written dats — no halo copy, nothing of a dat no loop has written
// (MG-CFD's volumes_l0, Hydra's xp), before and after a restore — and the
// rest of the file is small.
func TestSnapshotSize(t *testing.T) {
	apps := snapApps()
	for _, app := range []string{"mgcfd", "hydra"} {
		build := apps[app]
		t.Run(app, func(t *testing.T) {
			check := func(label string, b *Backend, constant *core.Dat) {
				t.Helper()
				var snap bytes.Buffer
				if err := b.Checkpoint(&snap, label); err != nil {
					t.Fatal(err)
				}
				st, err := checkpoint.Decode(bytes.NewReader(snap.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				var want, local int
				for _, d := range b.cfg.Prog.Dats {
					for r := range b.dats {
						local += len(b.dats[r][d.ID])
						if got := len(st.Dats[r][d.ID]); b.written[d.ID] {
							want += len(b.owned(r, d))
							if got != len(b.owned(r, d)) {
								t.Errorf("%s: rank %d %s: %d values stored, %d owned", label, r, d.Name, got, len(b.owned(r, d)))
							}
						} else if got != 0 {
							t.Errorf("%s: rank %d %s was never written and stores %d values", label, r, d.Name, got)
						}
					}
				}
				if b.written[constant.ID] {
					t.Errorf("%s: %s counts as written", label, constant.Name)
				}
				if want == 0 || want >= local {
					t.Fatalf("%s: %d owned written values of %d local: nothing to tell apart", label, want, local)
				}
				if limit := 8*want + 64<<10; snap.Len() > limit {
					t.Errorf("%s: snapshot is %d bytes, want at most %d (8 x %d owned values of written dats + 64 KB)",
						label, snap.Len(), limit, want)
				}
				t.Logf("%s: %d bytes; whole local slabs would be %d", label, snap.Len(), 8*local)
			}
			u := build(snapModes[1])
			b, err := New(u.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			u.init(b)
			u.step(b)
			check("first run", b, u.constant)
			var snap bytes.Buffer
			if err := b.Checkpoint(&snap, ""); err != nil {
				t.Fatal(err)
			}
			r := build(snapModes[1])
			res, _, err := Restore(&snap, r.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer res.Close()
			r.step(res)
			check("resumed run", res, r.constant)
		})
	}
}

// TestConfigFingerprintOnce: the configuration is immutable after New, so
// the fingerprint is rendered once per backend — the same bytes (the same
// slice) whatever host-side state changes in between, and equal to a fresh
// backend's.
func TestConfigFingerprintOnce(t *testing.T) {
	defer leakcheck.Check(t)()
	build := snapApps()["mgcfd"]
	newBackend := func() *Backend {
		run := build(snapModes[1])
		run.cfg.Faults = faults.MustParse("crash=rank0@50,crash=rank1@90,seed=1")
		b, err := New(run.cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b := newBackend()
	defer b.Close()
	first, err := b.configFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b.ArmCrashes([]bool{false, true})
	b.SetWatchdog(3.5)
	b.installPool(forcedWorkers)
	again, err := b.configFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] != &again[0] {
		t.Error("the fingerprint was rendered a second time")
	}
	var snap bytes.Buffer
	if err := b.Checkpoint(&snap, ""); err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.Decode(&snap)
	if err != nil {
		t.Fatal(err)
	}
	fresh := newBackend()
	defer fresh.Close()
	want, err := fresh.configFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, want) || !bytes.Equal(st.Fingerprint, want) {
		t.Errorf("fingerprints differ:\n first    %s\n snapshot %s\n fresh    %s", first, st.Fingerprint, want)
	}
}

// restoreFixture is the small workload the refusal table and the fuzzer
// perturb: a two-rank CA run of a random two-loop chain, snapshotted after
// two repetitions, with at least one written and one never-written dat.
type restoreFixture struct {
	m    *mesh.FV3D
	cfg  Config // Prog and Primary are replaced per restore (fresh)
	good []byte
	// written and constant are the IDs of a dat the snapshot holds and of one
	// it omits; owned[r] is the owned value count of either on rank r (both
	// are node dats of dimension 1).
	written, constant int
	owned             []int
}

const fixtureLoops = 2

func newRestoreFixture(tb testing.TB) *restoreFixture {
	tb.Helper()
	m := mesh.Rotor(6, 5, 4)
	w := newCkptWorkload(m, 5, fixtureLoops)
	fx := &restoreFixture{m: m, cfg: Config{Prog: w.app.p, Primary: w.app.nodes,
		Assign: partition.Block(m.NNodes, 2), NParts: 2, Depth: fixtureLoops + 1, MaxChainLen: fixtureLoops, CA: true}}
	b, err := New(fx.cfg)
	if err != nil {
		tb.Fatal(err)
	}
	defer b.Close()
	w.run(b, 0, 2, false)
	var snap bytes.Buffer
	if err := b.Checkpoint(&snap, "fixture"); err != nil {
		tb.Fatal(err)
	}
	fx.good = snap.Bytes()
	fx.written, fx.constant = -1, -1
	for _, d := range w.app.q {
		if b.written[d.ID] {
			fx.written = d.ID
		} else {
			fx.constant = d.ID
		}
	}
	if fx.written < 0 || fx.constant < 0 {
		tb.Fatalf("fixture needs a written and a never-written node dat; written = %v", b.written)
	}
	for r := range b.dats {
		fx.owned = append(fx.owned, len(b.owned(r, w.app.q[0])))
	}
	return fx
}

// fresh returns the fixture's configuration over a newly declared program,
// as a restoring process would build it, and the program's app.
func (fx *restoreFixture) fresh() (Config, *propApp) {
	w := newCkptWorkload(fx.m, 5, fixtureLoops)
	cfg := fx.cfg
	cfg.Prog, cfg.Primary = w.app.p, w.app.nodes
	return cfg, w.app
}

func (fx *restoreFixture) state(tb testing.TB) *checkpoint.State {
	tb.Helper()
	st, err := checkpoint.Decode(bytes.NewReader(fx.good))
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// editMeta rewrites the snapshot's account of its dats section, leaving the
// rest of the continuation blob as it is.
func editMeta(tb testing.TB, st *checkpoint.State, edit func(dats []ckptDat) []ckptDat) {
	tb.Helper()
	var meta map[string]json.RawMessage
	var dats []ckptDat
	if err := json.Unmarshal(st.Meta, &meta); err != nil {
		tb.Fatal(err)
	}
	if err := json.Unmarshal(meta["dats"], &dats); err != nil {
		tb.Fatal(err)
	}
	var err error
	if meta["dats"], err = json.Marshal(edit(dats)); err != nil {
		tb.Fatal(err)
	}
	if st.Meta, err = json.Marshal(meta); err != nil {
		tb.Fatal(err)
	}
}

// TestRestoreRefusals: a snapshot whose container is intact but which does
// not fit the restoring configuration — or whose omitted constants the
// restoring program declares differently — is refused with a typed error,
// never a panic, and leaves no worker pool behind.
func TestRestoreRefusals(t *testing.T) {
	fx := newRestoreFixture(t)
	for _, tc := range []struct {
		name string
		// edit perturbs the decoded snapshot, cfg and app the restoring side.
		edit func(st *checkpoint.State)
		cfg  func(cfg *Config, app *propApp)
		want SnapshotErrorKind
		msg  string
	}{
		{name: "slab one value short",
			edit: func(st *checkpoint.State) { st.Dats[1][fx.written] = st.Dats[1][fx.written][1:] },
			want: ErrSnapshotShape, msg: "want 0 or the"},
		{name: "whole local slab, as version 2 stored it",
			edit: func(st *checkpoint.State) {
				st.Dats[0][fx.written] = append(st.Dats[0][fx.written], make([]float64, 7)...)
			},
			want: ErrSnapshotShape, msg: "want 0 or the"},
		{name: "written dat with an empty slab",
			edit: func(st *checkpoint.State) { st.Dats[0][fx.written] = nil },
			want: ErrSnapshotShape, msg: "written=true"},
		{name: "omitted dat with a slab",
			edit: func(st *checkpoint.State) { st.Dats[1][fx.constant] = make([]float64, fx.owned[1]) },
			want: ErrSnapshotShape, msg: "written=false"},
		{name: "written list says omitted",
			edit: func(st *checkpoint.State) {
				editMeta(t, st, func(d []ckptDat) []ckptDat { d[fx.written].Written = false; return d })
			},
			want: ErrSnapshotShape, msg: "written=false"},
		{name: "written list one dat short",
			edit: func(st *checkpoint.State) {
				editMeta(t, st, func(d []ckptDat) []ckptDat { return d[:len(d)-1] })
			},
			want: ErrSnapshotShape, msg: "meta describes"},
		{name: "a rank missing",
			edit: func(st *checkpoint.State) { st.Dats = st.Dats[:1] },
			want: ErrSnapshotShape, msg: "ranks of data"},
		{name: "a dat missing on one rank",
			edit: func(st *checkpoint.State) { st.Dats[1] = st.Dats[1][:len(st.Dats[1])-1] },
			want: ErrSnapshotShape, msg: "rank 1 has"},
		{name: "validity deeper than the halo",
			edit: func(st *checkpoint.State) { st.ValidExec[0] = int64(fx.cfg.Depth) + 1 },
			want: ErrSnapshotShape, msg: "validity"},
		{name: "meta not JSON",
			edit: func(st *checkpoint.State) { st.Meta = []byte("{") },
			want: ErrSnapshotShape, msg: "meta"},
		{name: "omitted constant differs in one value",
			cfg:  func(_ *Config, app *propApp) { app.p.Dats[fx.constant].Data[3]++ },
			want: ErrSnapshotConstants, msg: "declares different values"},
		{name: "omitted constant's CRC edited",
			edit: func(st *checkpoint.State) {
				editMeta(t, st, func(d []ckptDat) []ckptDat { d[fx.constant].CRC ^= 1; return d })
			},
			want: ErrSnapshotConstants, msg: "declares different values"},
		{name: "another halo depth",
			cfg:  func(cfg *Config, _ *propApp) { cfg.Depth++ },
			want: ErrSnapshotConfig, msg: "fingerprint mismatch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer leakcheck.Check(t)()
			st := fx.state(t)
			if tc.edit != nil {
				tc.edit(st)
			}
			// Re-encoded, so the trailer matches: only restoreFrom can object.
			var raw bytes.Buffer
			if _, err := checkpoint.Encode(&raw, st); err != nil {
				t.Fatal(err)
			}
			cfg, app := fx.fresh()
			cfg.Parallel = true
			if tc.cfg != nil {
				tc.cfg(&cfg, app)
			}
			b, _, err := Restore(&raw, cfg)
			if b != nil {
				b.Close()
			}
			var se *SnapshotError
			if !errors.As(err, &se) || se.Kind != tc.want || !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("Restore = %v, want a *SnapshotError of kind %d mentioning %q", err, tc.want, tc.msg)
			}
		})
	}

	t.Run("version 2 file", func(t *testing.T) {
		defer leakcheck.Check(t)()
		v2 := bytes.Clone(fx.good)
		binary.LittleEndian.PutUint32(v2[8:], 2)
		cfg, _ := fx.fresh()
		cfg.Parallel = true
		_, _, err := Restore(bytes.NewReader(v2), cfg)
		if err == nil || !strings.Contains(err.Error(), "format version 2, this build reads 3") {
			t.Fatalf("Restore(v2) = %v, want the version error", err)
		}
	})

	// The unperturbed snapshot restores, also when the omitted constant was
	// rewritten with the same values.
	cfg, app := fx.fresh()
	copy(app.p.Dats[fx.constant].Data, slices.Clone(app.p.Dats[fx.constant].Data))
	b, note, err := Restore(bytes.NewReader(fx.good), cfg)
	if err != nil || note != "fixture" {
		t.Fatalf("pristine snapshot: %v (note %q)", err, note)
	}
	b.Close()
}

// FuzzRestore drives restoreFrom with snapshots the container accepts and
// the configuration may not: a decoded good snapshot, perturbed (a slab
// resized, a rank or dat dropped, validity, clocks, the written list, a CRC,
// the whole continuation blob or fingerprint replaced) and re-encoded so the
// trailer matches. Restore must never panic; it either refuses with a
// *SnapshotError or returns a backend that can itself be snapshotted and
// closed.
func FuzzRestore(f *testing.F) {
	fx := newRestoreFixture(f)
	// One seed per row of TestRestoreRefusals, plus accepted perturbations.
	f.Add(uint8(0), uint16(1), uint16(fx.written), int64(fx.owned[1]-1), []byte(nil))
	f.Add(uint8(0), uint16(0), uint16(fx.written), int64(fx.owned[0]+7), []byte(nil))
	f.Add(uint8(0), uint16(0), uint16(fx.written), int64(0), []byte(nil))
	f.Add(uint8(0), uint16(1), uint16(fx.constant), int64(fx.owned[1]), []byte(nil))
	f.Add(uint8(1), uint16(fx.written), uint16(0), int64(0), []byte(nil))
	f.Add(uint8(2), uint16(1), uint16(0), int64(0), []byte(nil))
	f.Add(uint8(3), uint16(0), uint16(0), int64(0), []byte(nil))
	f.Add(uint8(4), uint16(1), uint16(0), int64(0), []byte(nil))
	f.Add(uint8(5), uint16(0), uint16(0), int64(fx.cfg.Depth+1), []byte(nil))
	f.Add(uint8(6), uint16(0), uint16(0), int64(0), []byte("{"))
	f.Add(uint8(6), uint16(0), uint16(0), int64(0), []byte(`{"dats":[{},{},{},{},{}],"stats":null,"tunes":[{"chain":"prop"}]}`))
	f.Add(uint8(7), uint16(fx.constant), uint16(0), int64(1), []byte(nil))
	f.Add(uint8(8), uint16(0), uint16(0), int64(0), []byte(`{"version":3}`))
	f.Add(uint8(9), uint16(1), uint16(fx.written), int64(math.Float64bits(math.NaN())), []byte(nil))
	f.Add(uint8(10), uint16(3), uint16(0), int64(0), []byte(nil))
	f.Fuzz(func(t *testing.T, op uint8, a, b uint16, v int64, blob []byte) {
		st := fx.state(t)
		pick := func(i uint16, n int) int { return int(i) % n }
		switch op % 11 {
		case 0: // resize one slab
			r := pick(a, len(st.Dats))
			d := pick(b, len(st.Dats[r]))
			n := int(uint64(v) % uint64(fx.owned[r]+16))
			st.Dats[r][d] = append(st.Dats[r][d], make([]float64, max(0, n-len(st.Dats[r][d])))...)[:n]
		case 1: // flip one dat's written bit
			editMeta(t, st, func(d []ckptDat) []ckptDat {
				i := pick(a, len(d))
				d[i].Written = !d[i].Written
				return d
			})
		case 2: // shorten the written list
			editMeta(t, st, func(d []ckptDat) []ckptDat { return d[:pick(a, len(d)+1)] })
		case 3: // drop ranks
			st.Dats = st.Dats[:pick(a, len(st.Dats))]
		case 4: // drop dats of one rank
			r := pick(a, len(st.Dats))
			st.Dats[r] = st.Dats[r][:pick(b, len(st.Dats[r]))]
		case 5: // validity
			i := pick(a, len(st.ValidExec))
			st.ValidExec[i], st.ValidNonexec[i] = v, int64(b)-1
		case 6: // the continuation blob
			st.Meta = blob
		case 7: // one omitted dat's CRC
			editMeta(t, st, func(d []ckptDat) []ckptDat {
				d[pick(a, len(d))].CRC ^= uint32(v)
				return d
			})
		case 8: // the fingerprint
			st.Fingerprint = blob
		case 9: // one stored value: any bit pattern is a value
			r := pick(a, len(st.Dats))
			if s := st.Dats[r][pick(b, len(st.Dats[r]))]; len(s) > 0 {
				s[int(uint64(v)%uint64(len(s)))] = math.Float64frombits(uint64(v))
			}
		case 10: // clocks
			st.Clocks = st.Clocks[:pick(a, len(st.Clocks)+1)]
			st.FaultSeq = uint64(v)
		}
		var raw bytes.Buffer
		if _, err := checkpoint.Encode(&raw, st); err != nil {
			t.Skip(err) // validity slices of different lengths: not encodable
		}
		cfg, _ := fx.fresh()
		res, _, err := Restore(&raw, cfg)
		if err != nil {
			var se *SnapshotError
			if !errors.As(err, &se) {
				t.Fatalf("refused with %T %v, want a *SnapshotError", err, err)
			}
			return
		}
		defer res.Close()
		if err := res.Checkpoint(io.Discard, ""); err != nil {
			t.Fatalf("accepted snapshot cannot be snapshotted again: %v", err)
		}
	})
}
