package cluster

import (
	"strings"
	"testing"

	"op2ca/internal/core"
	"op2ca/internal/halo"
	"op2ca/internal/mesh"
	"op2ca/internal/partition"
)

// failureFixture builds a 2-rank backend with a node dat whose halo is
// dirty, ready for exchange-layer fault injection.
func failureFixture(t *testing.T) (*Backend, []exchangeSpec) {
	t.Helper()
	m := mesh.Rotor(6, 5, 4)
	p := core.NewProgram()
	nodes := p.DeclSet(m.NNodes, "nodes")
	edges := p.DeclSet(m.NEdges, "edges")
	e2n := p.DeclMap(edges, nodes, 2, m.EdgeNodes, "e2n")
	x := p.DeclDat(nodes, 1, nil, "x")
	b, err := New(Config{Prog: p, Primary: nodes,
		Assign: partition.Block(m.NNodes, 2), NParts: 2, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	_ = e2n
	specs := []exchangeSpec{{dat: x, execDepth: 1, nonexecDepth: 1}}
	return b, specs
}

// expectExchangeError runs f expecting a panic carrying a typed
// *ExchangeError of the given kind, and hands the error to check for
// field-level assertions.
func expectExchangeError(t *testing.T, kind ExchangeErrorKind, f func(), check func(*ExchangeError)) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic with *ExchangeError kind %v", kind)
		}
		e, ok := r.(*ExchangeError)
		if !ok {
			t.Fatalf("panic value %v (%T) is not a *ExchangeError", r, r)
		}
		if e.Kind != kind {
			t.Fatalf("ExchangeError kind = %v, want %v (error: %v)", e.Kind, kind, e)
		}
		if e.Error() == "" || !strings.HasPrefix(e.Error(), "cluster:") {
			t.Errorf("ExchangeError message %q should carry the cluster: prefix", e.Error())
		}
		if check != nil {
			check(e)
		}
	}()
	f()
}

// importer finds a rank of the fixture that imports non-execute halo nodes
// (a node set has no execute halo of its own), and returns it with that
// first import range — a pointer into the layout, so tests corrupt it in
// place.
func importer(t *testing.T, b *Backend, specs []exchangeSpec) (int, *halo.ImportRange) {
	t.Helper()
	for r := range b.layouts {
		if ranges := b.layouts[r].SetL(specs[0].dat.Set).ImportNonexec[0]; len(ranges) > 0 {
			return r, &ranges[0]
		}
	}
	t.Fatal("fixture has no halo import")
	return 0, nil
}

// Sender and receiver layouts are built together and agree by
// construction; these tests break that agreement the only way it can
// break — a corrupted halo.Layout — and require schedule construction, the
// one place messages are formed, to refuse with a typed error before any
// value moves, under either message grouping.
func eachGrouping(t *testing.T, f func(t *testing.T, grouped bool)) {
	for _, grouped := range []bool{true, false} {
		name := "per-dat"
		if grouped {
			name = "grouped"
		}
		t.Run(name, func(t *testing.T) { f(t, grouped) })
	}
}

// TestShortPayload: the receiver's import range holds more elements than
// the sender's export list packs.
func TestShortPayload(t *testing.T) {
	eachGrouping(t, func(t *testing.T, grouped bool) {
		b, specs := failureFixture(t)
		r, rg := importer(t, b, specs)
		from, sent := rg.Rank, int(rg.Count)
		rg.Count++
		expectExchangeError(t, ErrSizeMismatch, func() { b.exchange(specs, grouped) }, func(e *ExchangeError) {
			if e.Rank != r || e.From != from || e.Dat != "x" {
				t.Errorf("error names (%d <- %d, dat %q), want (%d <- %d, dat x)", e.Rank, e.From, e.Dat, r, from)
			}
			if e.Got != sent || e.Want != sent+1 {
				t.Errorf("got %d of %d values, want %d of %d", e.Got, e.Want, sent, sent+1)
			}
		})
	})
}

// TestLongPayload: the sender packs more elements than the receiver's
// import range holds — trailing values in the old wire format.
func TestLongPayload(t *testing.T) {
	eachGrouping(t, func(t *testing.T, grouped bool) {
		b, specs := failureFixture(t)
		_, rg := importer(t, b, specs)
		if rg.Count < 2 {
			t.Skip("import range too small to shrink")
		}
		sent := int(rg.Count)
		rg.Count--
		expectExchangeError(t, ErrSizeMismatch, func() { b.exchange(specs, grouped) }, func(e *ExchangeError) {
			if e.Got != sent || e.Want != sent-1 {
				t.Errorf("got %d of %d values, want %d of %d", e.Got, e.Want, sent, sent-1)
			}
		})
	})
}

// TestMissingSource: the receiver imports from a rank that exports
// nothing to it.
func TestMissingSource(t *testing.T) {
	eachGrouping(t, func(t *testing.T, grouped bool) {
		b, specs := failureFixture(t)
		r, rg := importer(t, b, specs)
		rg.Rank = int32(r) // no rank exports to itself
		expectExchangeError(t, ErrMissing, func() { b.exchange(specs, grouped) }, func(e *ExchangeError) {
			if e.Rank != r || e.From != int32(r) {
				t.Errorf("rank pair = (%d <- %d), want (%d <- %d)", e.Rank, e.From, r, r)
			}
		})
	})
}

// TestForeignSource: a rank sends a shell slice its destination does not
// import from it.
func TestForeignSource(t *testing.T) {
	eachGrouping(t, func(t *testing.T, grouped bool) {
		b, specs := failureFixture(t)
		r, rg := importer(t, b, specs)
		from := rg.Rank
		sl := b.layouts[r].SetL(specs[0].dat.Set)
		sl.ImportNonexec[0] = sl.ImportNonexec[0][1:] // forget the import; the export remains
		expectExchangeError(t, ErrUnexpected, func() { b.exchange(specs, grouped) }, func(e *ExchangeError) {
			if e.Rank != r || e.From != from {
				t.Errorf("rank pair = (%d <- %d), want (%d <- %d)", e.Rank, e.From, r, from)
			}
		})
	})
}

// TestCorruptLayoutStopsLoop: the typed error reaches the caller of an
// ordinary loop execution — serial or through the worker pool — and no
// halo value has moved when it does.
func TestCorruptLayoutStopsLoop(t *testing.T) {
	for _, workers := range []int{1, forcedWorkers} {
		b, specs := failureFixture(t)
		defer b.Close()
		b.installPool(workers)
		x := specs[0].dat
		e2n := b.cfg.Prog.Maps[0]
		_, rg := importer(t, b, specs)
		rg.Count++
		b.valid[x.ID] = validity{} // halo dirty: the loop must exchange
		before := make([][]float64, len(b.dats))
		for r := range b.dats {
			before[r] = append([]float64(nil), b.dats[r][x.ID]...)
		}
		k := &core.Kernel{Name: "read", Fn: func(a [][]float64) {}}
		expectExchangeError(t, ErrSizeMismatch, func() {
			b.ParLoop(core.NewLoop(k, e2n.From, core.ArgDat(x, 0, e2n, core.Read)))
		}, nil)
		for r := range b.dats {
			for i, v := range b.dats[r][x.ID] {
				if v != before[r][i] {
					t.Fatalf("workers=%d: rank %d value %d changed before the exchange was refused", workers, r, i)
				}
			}
		}
	}
}

// TestBeyondHaloDereferencePanics: executing an iteration whose map row
// reaches beyond the built halo must panic with a typed *HaloDepthError
// naming the rank, loop, iteration and map entry, rather than corrupt memory.
func TestBeyondHaloDereferencePanics(t *testing.T) {
	m := mesh.Rotor(6, 5, 4)
	p := core.NewProgram()
	nodes := p.DeclSet(m.NNodes, "nodes")
	edges := p.DeclSet(m.NEdges, "edges")
	p.DeclMap(edges, nodes, 2, m.EdgeNodes, "e2n")
	// far sends every node half the mesh away, so the non-execute nodes a
	// rank imports for its edges have map rows that leave its depth-1 halo.
	farVals := make([]int32, m.NNodes)
	for n := range farVals {
		farVals[n] = int32((n + m.NNodes/2) % m.NNodes)
	}
	far := p.DeclMap(nodes, nodes, 1, farVals, "far")
	x := p.DeclDat(nodes, 1, nil, "x")
	b, err := New(Config{Prog: p, Primary: nodes,
		Assign: partition.Random(m.NNodes, 3, 5), NParts: 3, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	k := &core.Kernel{Name: "k", Fn: func(a [][]float64) {}}
	l := core.NewLoop(k, nodes, core.ArgDat(x, 0, far, core.Read))
	// Force execution of one non-execute node (never executed normally)
	// whose row holds the layout's "absent" marker.
	for r := 0; r < 3; r++ {
		sl, rows := b.layouts[r].SetL(nodes), b.layouts[r].MapL(far)
		for it := int(sl.NonexecStart[0]); it < sl.Total(); it++ {
			if rows[it] >= 0 {
				continue
			}
			defer func() {
				want := HaloDepthError{Rank: r, Loop: "k", Iter: it, Map: "far", Slot: 0}
				if he, ok := recover().(*HaloDepthError); !ok || *he != want {
					t.Fatalf("recovered %#v, want %#v", he, &want)
				}
			}()
			b.runLoopOnRank(0, r, l, it, it+1, nil)
			t.Fatal("expected panic for beyond-halo dereference")
		}
	}
	t.Fatal("no rank imports a non-execute node whose far row leaves the halo")
}
