package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
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
// end in the state and checksum of a backend on layouts of its own, and every
// schedule either one memoised is the one the layouts hold; a backend with
// the plan cache off builds its own and leaves the table alone.
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
				for fp, s := range b.schedules {
					if shared.schedules[fp] != s {
						t.Errorf("%s: a backend replays schedule %q that is not the layouts'", label, fp)
					}
				}
				b.Close()
			}
			held := len(shared.schedules)
			uncached := run(shared, true)
			if g, w := uncached.ChecksumDats(), ref.ChecksumDats(); g != w || uncached.MaxClock() != ref.MaxClock() {
				t.Errorf("%s: without the plan cache, checksum %s at %v; with it %s at %v", label, g, uncached.MaxClock(), w, ref.MaxClock())
			}
			if len(uncached.schedules) != 0 || len(shared.schedules) != held {
				t.Errorf("%s: a backend without the plan cache memoised %d schedules and left %d on the layouts",
					label, len(uncached.schedules), len(shared.schedules)-held)
			}
			uncached.Close()
			ref.Close()
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
