package cluster

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"

	"op2ca/internal/core"
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
