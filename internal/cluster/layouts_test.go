package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"io"
	"math"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"op2ca/internal/checkpoint"
	"op2ca/internal/core"
	"op2ca/internal/faults"
	"op2ca/internal/leakcheck"
	"op2ca/internal/mesh"
	"op2ca/internal/partition"
)

// TestSharedLayoutsAreInvisible (run under -race): for both apps under every
// execution policy, one Layouts built from one instance of the program serves
// two more instances at once — two Parallel backends stepping concurrently on
// the same layouts, the service's two workers on one key — and each ends in
// the state, checksum and snapshot bytes of a backend that built its own. A
// snapshot of that backend restores onto the shared layouts too.
func TestSharedLayoutsAreInvisible(t *testing.T) {
	defer leakcheck.Check(t)()
	snapshot := func(b *Backend) []byte {
		var buf bytes.Buffer
		if err := b.Checkpoint(&buf, "k"); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for name, mk := range snapApps() {
		for _, mode := range snapModes {
			label := name + "/" + mode.name
			shared, err := NewLayouts(mk(mode).cfg)
			if err != nil {
				t.Fatal(err)
			}
			run := func(lay *Layouts) *Backend {
				r := mk(mode)
				r.cfg.Layouts, r.cfg.Parallel = lay, true
				b, err := New(r.cfg)
				if err != nil {
					t.Error(err)
					return nil
				}
				b.installPool(forcedWorkers)
				r.init(b)
				r.step(b)
				r.step(b)
				return b
			}
			ref := run(nil)
			if ref.cfg.Layouts == nil || ref.cfg.Layouts == shared {
				t.Fatalf("%s: a backend given no layouts did not build its own", label)
			}
			refSnap := snapshot(ref)
			got := make([]*Backend, 2)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = run(shared)
				}()
			}
			wg.Wait()
			for _, b := range got {
				if b == nil {
					t.FailNow()
				}
				if &b.layouts[0] != &shared.ranks[0] {
					t.Errorf("%s: a backend given layouts holds others", label)
				}
				compareBackends(t, label+" shared", b, ref)
				if !bytes.Equal(snapshot(b), refSnap) {
					t.Errorf("%s: a backend on shared layouts snapshots differently", label)
				}
				b.Close()
			}
			r := mk(mode)
			r.cfg.Layouts = shared
			res, _, err := Restore(bytes.NewReader(refSnap), r.cfg)
			if err != nil {
				t.Fatalf("%s: restore onto shared layouts: %v", label, err)
			}
			compareBackends(t, label+" restored", res, ref)
			res.Close()
			ref.Close()
		}
	}
}

// TestSharedSchedulesAreInvisible (run under -race): the exchange schedules
// a backend builds live on its Layouts, and every backend built on them
// replays them. For both apps under every execution policy, two Parallel
// backends stepping at once on one Layouts — each with a program of its own —
// end in the state and checksum of a backend on layouts of its own, and leave
// their schedules on the layouts; a backend with the plan cache off builds
// its own and leaves the table alone.
func TestSharedSchedulesAreInvisible(t *testing.T) {
	defer leakcheck.Check(t)()
	for name, mk := range snapApps() {
		for _, mode := range snapModes {
			label := name + "/" + mode.name
			shared, err := NewLayouts(mk(mode).cfg)
			if err != nil {
				t.Fatal(err)
			}
			run := func(lay *Layouts, noCache bool) *Backend {
				r := mk(mode)
				r.cfg.Layouts, r.cfg.Parallel, r.cfg.NoPlanCache = lay, true, noCache
				b, err := New(r.cfg)
				if err != nil {
					t.Error(err)
					return nil
				}
				b.installPool(forcedWorkers)
				r.init(b)
				r.step(b)
				r.step(b)
				return b
			}
			ref := run(nil, false)
			got := make([]*Backend, 2)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = run(shared, false)
				}()
			}
			wg.Wait()
			if len(shared.schedules) == 0 {
				t.Fatalf("%s: no schedule reached the shared layouts", label)
			}
			for _, b := range got {
				if b == nil {
					t.FailNow()
				}
				compareBackends(t, label+" shared", b, ref)
				if g, w := b.ChecksumDats(), ref.ChecksumDats(); g != w {
					t.Errorf("%s: checksum %s on shared schedules, %s on its own", label, g, w)
				}
				b.Close()
			}
			held := len(shared.schedules)
			uncached := run(shared, true)
			if g, w := uncached.ChecksumDats(), ref.ChecksumDats(); g != w || uncached.MaxClock() != ref.MaxClock() {
				t.Errorf("%s: without the plan cache, checksum %s at %v; with it %s at %v", label, g, uncached.MaxClock(), w, ref.MaxClock())
			}
			if len(shared.schedules) != held {
				t.Errorf("%s: a backend without the plan cache left %d schedules on the layouts",
					label, len(shared.schedules)-held)
			}
			uncached.Close()
			ref.Close()
		}
	}
}

// TestRestoreRefillsThroughTheSchedule (run under -race): a restore refills
// the halo copies a snapshot leaves out through an exchange schedule
// memoised on the layouts, like any loop's. For both apps, two restores at
// once onto one shared Layouts — one from a ring generation recovered without
// its dats, one from the snapshot's bytes — leave on the layouts exactly one
// schedule, the refill's; a third restore adds none, nor does one with the
// plan cache off. Every restored backend is in its uninterrupted run's state,
// holds its owners' values in every halo copy of a written dat, in every
// shell built, and steps on as the uninterrupted run does.
func TestRestoreRefillsThroughTheSchedule(t *testing.T) {
	defer leakcheck.Check(t)()
	var open []*Backend
	defer func() {
		for _, b := range open {
			b.Close()
		}
	}()
	ca := snapModes[1]
	for _, name := range []string{"mgcfd", "hydra"} {
		mk := snapApps()[name]
		// run steps u's instance on layouts of its own twice and snapshots it:
		// the uninterrupted run.
		run := func(u snapRun) (*Backend, []byte) {
			ref, err := New(u.cfg)
			if err != nil {
				t.Fatal(err)
			}
			open = append(open, ref)
			u.init(ref)
			u.step(ref)
			u.step(ref)
			var snap bytes.Buffer
			if err := ref.Checkpoint(&snap, "k"); err != nil {
				t.Fatal(err)
			}
			return ref, snap.Bytes()
		}
		u, nc := mk(ca), mk(ca)
		nc.cfg.NoPlanCache = true
		ref, snap := run(u)
		refNC, snapNC := run(nc)
		ring, err := checkpoint.NewRing(checkpoint.Spec{Every: 1, Path: filepath.Join(t.TempDir(), "ck"), Keep: 1})
		if err == nil {
			_, err = ring.Write(func(w io.Writer) error { _, err := w.Write(snap); return err })
		}
		if err == nil {
			err = ring.Flush()
		}
		if err != nil {
			t.Fatal(err)
		}
		shared, err := NewLayouts(u.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var refill []exchangeSpec
		for _, d := range u.cfg.Prog.Dats {
			if ref.written[d.ID] {
				refill = append(refill, exchangeSpec{dat: d, execDepth: u.cfg.Depth, nonexecDepth: u.cfg.Depth})
			}
		}
		refillFp := string(appendSpecFingerprint(nil, refill, true))
		held := func(after string) {
			t.Helper()
			if _, ok := shared.schedules[refillFp]; !ok || len(shared.schedules) != 1 {
				t.Errorf("%s, after %s: the layouts hold %d schedules, the refill's among them %t; want it alone",
					name, after, len(shared.schedules), ok)
			}
		}
		// restore restores onto the shared layouts a fresh instance of the
		// uninterrupted run want, from the ring or from bytes.
		type restored struct {
			label string
			r     snapRun
			b     *Backend
			want  *Backend
		}
		restore := func(label string, want *Backend, snap []byte, ringed bool) *restored {
			r := mk(ca)
			r.cfg.Layouts, r.cfg.Parallel, r.cfg.NoPlanCache = shared, true, want.cfg.NoPlanCache
			var b *Backend
			var err error
			if !ringed {
				b, _, err = Restore(bytes.NewReader(snap), r.cfg)
			} else if st, _, _, _ := ring.RecoverNewest(); st == nil {
				err = errors.New("the ring lost its generation")
			} else {
				b, err = RestoreState(st, r.cfg)
			}
			if err != nil {
				t.Errorf("%s %s: %v", name, label, err)
				return nil
			}
			return &restored{label: name + " " + label, r: r, b: b, want: want}
		}
		all := make([]*restored, 2)
		var wg sync.WaitGroup
		for i := range all {
			wg.Add(1)
			go func() {
				defer wg.Done()
				all[i] = restore([]string{"from the ring", "from bytes"}[i], ref, snap, i == 0)
			}()
		}
		wg.Wait()
		held("two restores at once")
		all = append(all, restore("third", ref, snap, false))
		held("a third restore")
		all = append(all, restore("without the plan cache", refNC, snapNC, false))
		held("a restore without the plan cache")
		for _, g := range all {
			if g != nil {
				open = append(open, g.b)
			}
		}
		if slices.Contains(all, nil) {
			t.FailNow()
		}

		for _, g := range all {
			compareBackends(t, g.label, g.b, g.want)
			// Every shell built, not only those inside validity: the refill
			// is an exchange of them all.
			valid := slices.Clone(g.b.valid)
			for id := range g.b.valid {
				if g.b.written[id] {
					g.b.valid[id] = validity{exec: g.b.cfg.Depth, nonexec: g.b.cfg.Depth}
				}
			}
			checkHaloInvariant(t, g.label+", every shell", g.b)
			copy(g.b.valid, valid)
		}
		u.step(ref)
		nc.step(refNC)
		for _, g := range all {
			g.r.step(g.b)
			compareBackends(t, g.label+", a step on", g.b, g.want)
		}
	}
}

// programHash hashes everything a program declares: every set's name and
// size, every map's name, arity and values, every dat's name, dim and values.
func programHash(p *core.Program) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, s := range p.Sets {
		h.Write([]byte(s.Name))
		word(uint64(s.Size))
	}
	for _, m := range p.Maps {
		h.Write([]byte(m.Name))
		word(uint64(m.Arity))
		for _, v := range m.Values {
			word(uint64(uint32(v)))
		}
	}
	for _, d := range p.Dats {
		h.Write([]byte(d.Name))
		word(uint64(d.Dim))
		for _, v := range d.Data {
			word(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// TestBackendLeavesProgramUntouched: a backend reads Config.Prog and
// Config.Assign and never writes them, which is what lets one declared
// program and one partition assignment serve any number of backends at once
// (runspec's Instances and Assignments). For both apps under every execution
// policy and a drop plan, a Parallel backend initialised and stepped,
// checkpointed, gathered and checksummed, and a backend restored from its
// snapshot and stepped again, leave every set size, map value and dat value
// of the program as declared, and every element's rank as assigned.
func TestBackendLeavesProgramUntouched(t *testing.T) {
	defer leakcheck.Check(t)()
	drop := snapMode{"drop", func(c *Config) { c.Faults = faults.MustParse("drop=0.2,seed=7") }, true}
	for name, mk := range snapApps() {
		for _, mode := range append(slices.Clone(snapModes), drop) {
			label := name + "/" + mode.name
			r := mk(mode)
			r.cfg.Parallel = true
			before, assign := programHash(r.cfg.Prog), assignHash(r.cfg.Assign)
			b, err := New(r.cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			b.installPool(forcedWorkers)
			r.init(b)
			r.step(b)
			var snap bytes.Buffer
			if err := b.Checkpoint(&snap, "k"); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for _, d := range r.cfg.Prog.Dats {
				b.GatherDat(d)
			}
			b.ChecksumDats()
			b.Close()
			st, err := checkpoint.Decode(&snap)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			res, err := RestoreState(st, r.cfg)
			if err != nil {
				t.Fatalf("%s: restore: %v", label, err)
			}
			r.step(res)
			res.ChecksumDats()
			res.Close()
			if programHash(r.cfg.Prog) != before {
				t.Errorf("%s: the program changed under its backends", label)
			}
			if assignHash(r.cfg.Assign) != assign {
				t.Errorf("%s: the assignment changed under its backends", label)
			}
		}
	}
}

// TestPrebuiltLayoutsMismatch: layouts built from anything other than what
// the configuration describes are refused with a *LayoutsError naming the
// input — one case per input the check covers — and fitting ones are taken.
func TestPrebuiltLayoutsMismatch(t *testing.T) {
	m := mesh.Rotor(6, 5, 4)
	a := newMiniApp(m)
	base := Config{Prog: a.p, Primary: a.nodes, Assign: partition.Block(m.NNodes, 2), NParts: 2,
		Depth: 2, MaxChainLen: 4, CA: true}
	lay, err := NewLayouts(base)
	if err != nil {
		t.Fatal(err)
	}
	// extraSet is the mini app's program plus one set; shortEdges has one
	// edge fewer.
	extraSet := newMiniApp(m)
	extraSet.p.DeclSet(3, "cells")
	shortEdges := core.NewProgram()
	sn := shortEdges.DeclSet(m.NNodes, "nodes")
	se := shortEdges.DeclSet(m.NEdges-1, "edges")
	shortEdges.DeclSet(m.NBedges, "bedges")
	shortEdges.DeclSet(m.NPedges, "pedges")
	shortEdges.DeclMap(se, sn, 2, m.EdgeNodes[:2*(m.NEdges-1)], "e2n")

	for _, tc := range []struct {
		what string
		mut  func(*Config)
	}{
		{"NParts", func(c *Config) { c.NParts, c.Assign = 3, partition.Block(m.NNodes, 3) }},
		{"Depth", func(c *Config) { c.Depth = 3 }},
		{"MaxChainLen", func(c *Config) { c.MaxChainLen = 0 }}, // the default, 8
		{"number of sets", func(c *Config) { c.Prog, c.Primary = extraSet.p, extraSet.nodes }},
		{"size of set edges", func(c *Config) { c.Prog, c.Primary = shortEdges, sn }},
		{"assignment hash", func(c *Config) {
			c.Assign = slices.Clone(c.Assign)
			c.Assign[0] = 1 - c.Assign[0]
		}},
	} {
		cfg := base
		tc.mut(&cfg)
		cfg.Layouts = lay
		b, err := New(cfg)
		var le *LayoutsError
		if !errors.As(err, &le) || le.What != tc.what {
			t.Errorf("%s differs: New = %v, want a *LayoutsError about %s", tc.what, err, tc.what)
		}
		if b != nil {
			b.Close()
		}
	}
	cfg := base
	cfg.Layouts = lay
	b, err := New(cfg)
	if err != nil {
		t.Fatalf("layouts built from the configuration were refused: %v", err)
	}
	b.Close()
}
