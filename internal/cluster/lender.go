package cluster

import (
	"slices"
	"sync"
	"unsafe"
	"weak"

	"op2ca/internal/halo"
	"op2ca/internal/netsim"
)

// SlabLender is where a backend built with Config.Slabs borrows its flat
// []float64 storage and where its Close returns it — and where layouts
// NewLayouts builds with it borrow theirs, viewed as other pointer-free types
// (lendable), until their Release. Get returns a slice of length n whose
// contents are unspecified — the borrower writes before it reads — and whose
// capacity may exceed n; Put takes back exactly what Get handed out, once.
// Both are safe for concurrent use.
type SlabLender interface {
	Get(n int) []float64
	Put(s []float64)
}

// Lender is the SlabLender a front-end that builds many backends owns (the
// job service: one per Service; the paper harness: one per registry of
// experiments): a free list of the slabs closed backends returned, lent again
// best fit — the smallest free slab of capacity at least n, since the
// backends of one service differ in size. Nothing is zeroed on the way
// through.
//
// The free list is sized by the traffic: it keeps at most as many slabs as
// were ever lent at once, the largest first. A Get makes a slab only when
// every free one at least that large is out, so a Lender never has more
// slabs than it once had out together, and the bound matters only for slabs
// it did not lend.
//
// The free slabs are strongly referenced from a sync.Pool and from nowhere
// else, so the garbage collector is the eviction policy: every Get and Put
// takes the pool's content out and puts it back, which counts as a use, and
// a Lender nobody borrows from for two collections holds nothing — an idle
// owner retains no slab, and none outlives the Lender. Slabs are
// pointer-free, so while they are held a collection marks them in no time.
// The pool does not hand over what sits in another P's private slot, so the
// Lender also keeps a weak pointer to every free slab and finds those through
// it; a slab carries whether it is free, so the stale copy a slot still holds
// of one lent since is dropped, never lent twice. The zero value is an empty
// Lender.
type Lender struct {
	mu   sync.Mutex
	pool sync.Pool // of *slab, no New: an empty pool hands over nil
	// index reaches every free slab, in whichever P's slot it is parked.
	index []weak.Pointer[slab]
	// buf is take's result, kept between calls for its storage only.
	buf []*slab
	// out counts the slabs lent now; peak is the most ever lent at once.
	out, peak int
	stats     LenderStats
}

// slab is one free-list entry: the storage, and whether it is free — set by
// Put, cleared when it is lent or let go — and whether take has it already,
// guarded by the Lender's mu; and the weak pointer the index reaches it by,
// made once.
type slab struct {
	s           []float64
	free, taken bool
	weak        weak.Pointer[slab]
}

// LenderStats are a Lender's counters: Gets served by a returned slab, Gets
// that made a new one, and the bytes lent out now.
type LenderStats struct {
	Hits, Misses int64
	LentBytes    int64
}

// take returns every free slab: what the pool hands over and what the index
// reaches, each once. Callers hold mu and end with give.
func (l *Lender) take() []*slab {
	free := l.buf[:0]
	add := func(p *slab) {
		if p != nil && p.free && !p.taken {
			p.taken = true
			free = append(free, p)
		}
	}
	for {
		p, _ := l.pool.Get().(*slab)
		if p == nil {
			break
		}
		add(p)
	}
	for _, w := range l.index {
		add(w.Value())
	}
	return free
}

// give puts free back in the pool and the index — the largest peak of it —
// and lets go of the rest.
func (l *Lender) give(free []*slab) {
	for _, p := range free {
		p.taken = false
	}
	kept := free
	if len(kept) > l.peak {
		slices.SortFunc(kept, func(a, b *slab) int { return cap(b.s) - cap(a.s) })
		for _, p := range kept[l.peak:] {
			p.free = false
		}
		kept = kept[:l.peak]
	}
	l.index = l.index[:0]
	for _, p := range kept {
		l.pool.Put(p)
		l.index = append(l.index, p.weak)
	}
	clear(free) // buf keeps the storage, not the slabs
	l.buf = free[:0]
}

// Get implements SlabLender.
func (l *Lender) Get(n int) []float64 {
	l.mu.Lock()
	free := l.take()
	best := -1
	for i, p := range free {
		if cap(p.s) >= n && (best < 0 || cap(p.s) < cap(free[best].s)) {
			best = i
		}
	}
	var s []float64
	if best >= 0 {
		free[best].free = false
		s = free[best].s[:n]
		free = slices.Delete(free, best, best+1)
		l.stats.Hits++
		l.stats.LentBytes += 8 * int64(cap(s))
	} else {
		l.stats.Misses++
		l.stats.LentBytes += 8 * int64(n)
	}
	l.out++
	l.peak = max(l.peak, l.out)
	l.give(free)
	l.mu.Unlock()
	if best < 0 {
		s = make([]float64, n) // outside the lock: clearing megabytes takes a while
	}
	return s
}

// Put implements SlabLender. Returning a slab that is already free would lend
// it to two backends at once, so it panics where it can see that.
func (l *Lender) Put(s []float64) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	l.mu.Lock()
	defer l.mu.Unlock()
	free := l.take()
	for _, p := range free {
		if &p.s[0] == &s[0] {
			l.give(free)
			panic("cluster: slab returned to its Lender twice")
		}
	}
	l.out = max(l.out-1, 0)
	l.stats.LentBytes -= 8 * int64(cap(s))
	p := &slab{s: s, free: true}
	p.weak = weak.Make(p)
	l.give(append(free, p))
}

// Reset lets go of every free slab; the counters stand, and slabs still lent
// come back as usual.
func (l *Lender) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	free := l.take()
	for _, p := range free {
		p.free = false
	}
	clear(free)
	clear(l.index)
	l.index = l.index[:0]
}

// Stats reads the counters.
func (l *Lender) Stats() LenderStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// lendable are the element types a SlabLender's storage is lent as, besides
// float64: pointer-free, and aligned to at most 8 bytes, so a []float64 slab
// holds them and the collector need not look inside.
type lendable interface {
	int32 | halo.Range | packSeg | unpackSeg | netsim.Message
}

// words is how many float64 words n values of T take.
func words[T lendable](n int) int { return (n*int(unsafe.Sizeof(*new(T))) + 7) / 8 }

// view returns n values of T laid over the words at the front of *w, and
// moves *w past them. The values are whatever the words hold.
func view[T lendable](w *[]float64, n int) []T {
	if n == 0 {
		return nil
	}
	v := unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(*w))), n)
	*w = (*w)[words[T](n):]
	return v
}
