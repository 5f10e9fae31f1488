package cluster

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"op2ca/internal/checkpoint"
	"op2ca/internal/core"
	"op2ca/internal/leakcheck"
	"op2ca/internal/machine"
	"op2ca/internal/mesh"
	"op2ca/internal/netsim"
	"op2ca/internal/partition"
)

// poisonLender is a Lender that makes recycled memory visible if anything
// reads it: every slab goes out NaN-filled — a new one too — and comes back
// NaN-filled, so a borrower that read before it wrote, or after it returned,
// would carry a NaN into a checksum. It counts what it lent and got back.
type poisonLender struct {
	Lender
	gets, puts atomic.Int64
}

func poison(s []float64) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = math.NaN()
	}
}

func (p *poisonLender) Get(n int) []float64 {
	s := p.Lender.Get(n)
	if cap(s) > 0 {
		p.gets.Add(1)
	}
	poison(s)
	return s
}

func (p *poisonLender) Put(s []float64) {
	if cap(s) > 0 {
		p.puts.Add(1)
	}
	poison(s)
	p.Lender.Put(s)
}

// pinLender makes a Lender's free list exact for the length of a test: no
// collection, so nothing ages out of the pool and every free slab stays
// reachable through the index — whichever P's slot holds it, and under the
// race detector too, where the pool drops a quarter of what is put back.
func pinLender(t *testing.T) {
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(gc) })
}

func base(s []float64) *float64 { return &s[:1][0] }

// TestLenderProperty drives a Lender alone through a seeded schedule of Gets
// and Puts against a model of its free list: Get(n) returns n values, never a
// slab still lent, the smallest free slab that holds n, and a new one only
// when none does; more free slabs than were ever out at once keep the
// largest.
func TestLenderProperty(t *testing.T) {
	pinLender(t)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l Lender
		lent, free, used := map[*float64]int{}, map[*float64]int{}, map[int]bool{}
		var out [][]float64
		var gets int64
		peak := 0
		for step := 0; step < 1500; step++ {
			if len(out) > 0 && rng.Intn(5) < 2 {
				i := rng.Intn(len(out))
				s := out[i]
				out[i] = out[len(out)-1]
				out = out[:len(out)-1]
				delete(lent, base(s))
				free[base(s)] = cap(s)
				l.Put(s[:rng.Intn(len(s)+1)]) // whatever length the borrower left it at
				if len(free) > peak {
					var least *float64
					for p, c := range free {
						if least == nil || c < free[least] {
							least = p
						}
					}
					delete(free, least)
				}
				continue
			}
			// Capacities are distinct, so best fit names one slab.
			n := 1 + rng.Intn(1<<12)
			for used[n] {
				n = 1 + rng.Intn(1<<12)
			}
			var want *float64
			for p, c := range free {
				if c >= n && (want == nil || c < free[want]) {
					want = p
				}
			}
			s := l.Get(n)
			gets++
			if len(s) != n {
				t.Fatalf("seed %d step %d: Get(%d) has length %d", seed, step, n, len(s))
			}
			if _, still := lent[base(s)]; still {
				t.Fatalf("seed %d step %d: Get(%d) lent a slab that is still out", seed, step, n)
			}
			c, recycled := free[base(s)]
			switch {
			case recycled && (c != cap(s) || c < n):
				t.Fatalf("seed %d step %d: Get(%d) returned a free slab of capacity %d as %d", seed, step, n, c, cap(s))
			case want != nil && base(s) != want:
				t.Fatalf("seed %d step %d: Get(%d) returned capacity %d (recycled %t), best fit is the free slab of %d",
					seed, step, n, cap(s), recycled, free[want])
			case want == nil && recycled:
				t.Fatalf("seed %d step %d: Get(%d) found a slab the model says is gone", seed, step, n)
			}
			if !recycled {
				used[cap(s)] = true
			}
			delete(free, base(s))
			lent[base(s)] = cap(s)
			out = append(out, s)
			peak = max(peak, len(out))
		}
		var bytes int64
		for _, c := range lent {
			bytes += 8 * int64(c)
		}
		if st := l.Stats(); st.Hits+st.Misses != gets || st.LentBytes != bytes || st.Hits == 0 {
			t.Errorf("seed %d: stats %+v after %d Gets with %d bytes out", seed, st, gets, bytes)
		}
	}
}

// TestLenderConcurrent (run under -race): eight goroutines borrow, fill the
// slab with their own mark, yield, and find it intact before they return it —
// a slab lent to two of them at once would show the other's mark, and does
// show as a race.
func TestLenderConcurrent(t *testing.T) {
	var l Lender
	var wg sync.WaitGroup
	for g := 1; g <= 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 300; i++ {
				s := l.Get(1 + rng.Intn(1<<10))
				for j := range s {
					s[j] = float64(g)
				}
				runtime.Gosched()
				for j := range s {
					if s[j] != float64(g) {
						t.Errorf("goroutine %d found %v in a slab it holds", g, s[j])
						return
					}
				}
				l.Put(s)
			}
		}()
	}
	wg.Wait()
	if st := l.Stats(); st.Hits+st.Misses != 8*300 || st.LentBytes != 0 {
		t.Errorf("stats %+v after 2400 Gets, all returned", st)
	}
}

// TestLenderBoundAndLifetime: a Lender keeps as many free slabs as it ever
// lent at once, the largest of what is returned; Reset lets go of them, and
// so do two collections — the pool's ageing is the Lender's: nothing it holds
// outlives an idle spell.
func TestLenderBoundAndLifetime(t *testing.T) {
	pinLender(t)
	var l Lender
	const peak = 4
	var out [][]float64
	for n := 1; n <= peak; n++ {
		out = append(out, l.Get(10*n))
	}
	for _, s := range out {
		l.Put(s)
	}
	// Two slabs it never lent, one larger than any it did.
	l.Put(make([]float64, 25))
	l.Put(make([]float64, 45))
	for _, want := range []int{25, 30, 40, 45} {
		if s := l.Get(1); cap(s) != want {
			t.Fatalf("Get(1) has capacity %d, want %d: the %d largest are kept and lent smallest first", cap(s), want, peak)
		}
	}
	misses := l.Stats().Misses
	if s := l.Get(1); cap(s) != 1 || l.Stats().Misses != misses+1 {
		t.Fatalf("a Lender lent out holds nothing: Get(1) has capacity %d", cap(s))
	}
	fill := func() {
		for n := 1; n <= 3; n++ {
			l.Put(make([]float64, n))
		}
	}
	for name, empty := range map[string]func(){"Reset": l.Reset, "two collections": func() { runtime.GC(); runtime.GC() }} {
		fill()
		empty()
		misses := l.Stats().Misses
		if s := l.Get(1); cap(s) != 1 || l.Stats().Misses != misses+1 {
			t.Errorf("after %s Get(1) has capacity %d: the Lender still held a slab", name, cap(s))
		}
	}
	s := make([]float64, 8)
	l.Put(s)
	defer func() {
		if recover() == nil {
			t.Error("a slab returned twice was taken twice")
		}
	}()
	l.Put(s)
}

// TestLenderHitsAcrossPs: eight goroutines borrow and return one size at
// once, on whatever Ps they are scheduled, and the Lender makes no more slabs
// than were ever out together — a Get makes one only when every free slab
// that fits is out — so a slab returned on one P is lent on another, where
// the pool alone hands it to no one.
func TestLenderHitsAcrossPs(t *testing.T) {
	pinLender(t)
	var l Lender
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := l.Get(256)
				runtime.Gosched()
				l.Put(s)
			}
		}()
	}
	wg.Wait()
	if st := l.Stats(); st.Misses > int64(l.peak) || st.Hits+st.Misses != 8*500 {
		t.Errorf("%+v with at most %d slabs out at once: a free slab was missed", st, l.peak)
	}
}

// TestLentBackendIsInvisible: a backend that borrows its storage from a
// lender that poisons is, bit for bit, the backend that made its own — state,
// checksum and snapshot bytes, under every execution policy — on recycled
// slabs (each configuration runs twice over the one lender) and across a
// restore in both directions: the lender is outside the fingerprint. Whatever
// was borrowed is back after Close, once.
func TestLentBackendIsInvisible(t *testing.T) {
	defer leakcheck.Check(t)()
	lender := &poisonLender{}
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
			run := func(slabs SlabLender) (snapRun, *Backend) {
				r := mk(mode)
				r.cfg.Slabs, r.cfg.Parallel = slabs, true
				b, err := New(r.cfg)
				if err != nil {
					t.Fatal(err)
				}
				b.installPool(forcedWorkers)
				r.init(b)
				r.step(b)
				r.step(b)
				return r, b
			}
			refRun, ref := run(nil)
			refSum, refSnap := ref.ChecksumDats(), snapshot(ref)
			for round := 0; round < 2; round++ {
				_, lent := run(lender)
				compareBackends(t, label+" lent", lent, ref)
				if sum := lent.ChecksumDats(); sum != refSum {
					t.Errorf("%s: lent checksum %s, unlent %s", label, sum, refSum)
				}
				if !bytes.Equal(snapshot(lent), refSnap) {
					t.Errorf("%s: a lent backend's snapshot differs from an unlent one's", label)
				}
				lent.Close()
				lent.Close()
			}
			// The snapshot into an unlent backend and into a lent one, and both
			// one step on against the uninterrupted run.
			var runs []snapRun
			var restored []*Backend
			for _, slabs := range []SlabLender{nil, lender} {
				r := mk(mode)
				r.cfg.Slabs = slabs
				res, _, err := Restore(bytes.NewReader(refSnap), r.cfg)
				if err != nil {
					t.Fatalf("%s: restore: %v", label, err)
				}
				compareBackends(t, label+" restored", res, ref)
				runs, restored = append(runs, r), append(restored, res)
			}
			refRun.step(ref)
			for i, res := range restored {
				runs[i].step(res)
				compareBackends(t, label+" resumed", res, ref)
				res.Close()
			}
			ref.Close()
		}
	}
	if g, p := lender.gets.Load(), lender.puts.Load(); g != p || g == 0 {
		t.Errorf("%d slabs borrowed, %d returned", g, p)
	}
	if st := lender.Stats(); st.LentBytes != 0 || st.Hits == 0 {
		t.Errorf("lender after every Close: %+v", st)
	}
}

// TestFailedRestoreReturnsItsSlabs: RestoreState builds a backend before it
// can refuse the snapshot; the refused backend's storage goes back.
func TestFailedRestoreReturnsItsSlabs(t *testing.T) {
	defer leakcheck.Check(t)()
	fx := newRestoreFixture(t)
	st := fx.state(t)
	st.Clocks = st.Clocks[1:]
	var raw bytes.Buffer
	if _, err := checkpoint.Encode(&raw, st); err != nil {
		t.Fatal(err)
	}
	lender := &poisonLender{}
	cfg, _ := fx.fresh()
	cfg.Slabs, cfg.Parallel = lender, true
	_, _, err := Restore(&raw, cfg)
	var se *SnapshotError
	if !errors.As(err, &se) {
		t.Fatalf("Restore = %v, want a *SnapshotError", err)
	}
	if g, p := lender.gets.Load(), lender.puts.Load(); g != p || g == 0 || lender.Stats().LentBytes != 0 {
		t.Errorf("refused restore: %d slabs borrowed, %d returned, %d bytes out", g, p, lender.Stats().LentBytes)
	}
}

// TestClosedBackend: everything that would touch the dats of a closed backend
// panics with a *ClosedError naming it and the call — lent or not, since a
// lent backend's dats may be another's by then — while what the run left
// behind stays readable.
func TestClosedBackend(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	for _, slabs := range []SlabLender{nil, &poisonLender{}} {
		a := newMiniApp(m)
		a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
		b, err := New(Config{Prog: a.p, Primary: a.nodes, Assign: partition.KWay(m.NodeAdjacency(), 4), NParts: 4,
			Depth: 2, MaxChainLen: 4, CA: true, Slabs: slabs})
		if err != nil {
			t.Fatal(err)
		}
		a.run(b, 1, true)
		clock, exchanges := b.MaxClock(), b.ExchangeSeq()
		b.Close()
		if b.MaxClock() != clock || b.ExchangeSeq() != exchanges || b.Stats() == nil {
			t.Error("a closed backend lost its clocks or stats")
		}
		for op, f := range map[string]func(){
			"ParLoop":      func() { a.run(b, 1, false) },
			"ChainBegin":   func() { a.run(b, 1, true) },
			"GatherDat":    func() { b.GatherDat(a.res) },
			"ChecksumDats": func() { b.ChecksumDats() },
			"Checkpoint":   func() { b.Checkpoint(&bytes.Buffer{}, "") },
		} {
			func() {
				defer func() {
					var ce *ClosedError
					if err, _ := recover().(error); !errors.As(err, &ce) || ce.Op != op || ce.Backend != "cluster-ca" || ce.NParts != 4 {
						t.Errorf("%s on a closed backend (lender %v): recovered %v, want a *ClosedError naming it", op, slabs != nil, err)
					}
				}()
				f()
			}()
		}
	}
}

// TestLentSteadyStateZeroAlloc: borrowing changes where a backend's buffers
// come from, not when — TestChainExecZeroAlloc's and
// TestPerLoopExchangeZeroAlloc's steady states, and a repeated ChecksumDats,
// on a lent backend.
func TestLentSteadyStateZeroAlloc(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	a := newMiniApp(m)
	lender := &poisonLender{}
	b, err := New(Config{Prog: a.p, Primary: a.nodes, Assign: partition.KWay(m.NodeAdjacency(), 4), NParts: 4,
		Depth: 2, MaxChainLen: 4, CA: true, Machine: machine.ARCHER2(), Slabs: lender})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	loops := []core.Loop{
		core.NewLoop(kUpdate, a.edges,
			core.ArgDat(a.res, 0, a.e2n, core.Inc), core.ArgDat(a.res, 1, a.e2n, core.Inc),
			core.ArgDat(a.pres, 0, a.e2n, core.Read), core.ArgDat(a.pres, 1, a.e2n, core.Read)),
		core.NewLoop(kFlux, a.edges,
			core.ArgDat(a.flux, 0, a.e2n, core.Inc), core.ArgDat(a.flux, 1, a.e2n, core.Inc),
			core.ArgDat(a.res, 0, a.e2n, core.Read), core.ArgDat(a.res, 1, a.e2n, core.Read),
			core.ArgDatDirect(a.ew, core.Read)),
	}
	specs := []exchangeSpec{{dat: a.res, execDepth: 2, nonexecDepth: 2}, {dat: a.pres, execDepth: 2, nonexecDepth: 2}}
	post := make([]float64, b.cfg.NParts)
	var sum string
	steps := map[string]func(){
		"chain": func() {
			b.ChainBegin("synth")
			b.ParLoop(loops[0])
			b.ParLoop(loops[1])
			b.ChainEnd()
		},
		"per-loop exchange": func() {
			b.deliver(post, b.exchange(specs, false).msgs, "probe", b.maxRetries, netsim.Bulk)
		},
	}
	for _, workers := range []int{1, forcedWorkers} {
		b.installPool(workers)
		for name, step := range steps {
			for i := 0; i < 3; i++ {
				step()
			}
			if n := testing.AllocsPerRun(10, step); n != 0 {
				t.Errorf("%s, %d workers: a lent backend's steady state allocates %v per run, want 0", name, workers, n)
			}
		}
		sum = b.ChecksumDats()
		if n := testing.AllocsPerRun(10, func() { sum = b.ChecksumDats() }); n > 4 {
			t.Errorf("%d workers: a repeated ChecksumDats on a lent backend makes %v allocations, want a handful", workers, n)
		}
	}
	if g, p := lender.gets.Load(), lender.puts.Load(); g-p != 3 {
		t.Errorf("the backend borrowed %d slabs and returned %d, want three out: its storage, the payload slab and the gather buffer", g, p)
	}
	if sum == "" || lender.Stats().LentBytes == 0 {
		t.Errorf("checksum %q with %d bytes borrowed", sum, lender.Stats().LentBytes)
	}
}
