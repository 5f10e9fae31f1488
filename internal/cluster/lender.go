package cluster

import (
	"slices"
	"sync"
)

// SlabLender is where a backend built with Config.Slabs borrows its flat
// []float64 storage and where its Close returns it. Get returns a slice of
// length n whose contents are unspecified — the borrower writes before it
// reads — and whose capacity may exceed n; Put takes back exactly what Get
// handed out, once. Both are safe for concurrent use.
type SlabLender interface {
	Get(n int) []float64
	Put(s []float64)
}

// lenderSlabs bounds the free slabs a Lender holds: what two jobs borrow
// (storage, payload, gather buffer each) and two to spare.
const lenderSlabs = 8

// Lender is the SlabLender a front-end that builds many backends owns (the
// job service: one per Service): a free list of the slabs closed backends
// returned, lent again best fit — the smallest free slab of capacity at
// least n, since the backends of one service differ in size. Nothing is
// zeroed on the way through.
//
// The free slabs are referenced from a sync.Pool and from nowhere else, so
// the garbage collector is the eviction policy: every Get and Put takes the
// pool's content out and puts it back, which counts as a use, and a Lender
// nobody borrows from for two collections holds nothing — an idle owner
// retains no slab, and none outlives the Lender. Slabs are pointer-free, so
// while they are held a collection marks them in no time. A slab parked in
// the per-P slot of a P other than the caller's is not handed over by the
// pool: it is a miss now and a hit later, never lent twice. The zero value is
// an empty Lender.
type Lender struct {
	mu   sync.Mutex
	free sync.Pool // of *[]float64, no New: an empty pool hands over nil
	// buf is take's result, kept between calls for its storage only.
	buf   []*[]float64
	stats LenderStats
}

// LenderStats are a Lender's counters: Gets served by a returned slab, Gets
// that made a new one, and the bytes lent out now.
type LenderStats struct {
	Hits, Misses int64
	LentBytes    int64
}

// take empties the pool. Callers hold mu and end with give.
func (l *Lender) take() []*[]float64 {
	free := l.buf[:0]
	for {
		p, _ := l.free.Get().(*[]float64)
		if p == nil {
			return free
		}
		free = append(free, p)
	}
}

// give puts free back in the pool — the largest lenderSlabs of it — and lets
// go of the rest.
func (l *Lender) give(free []*[]float64) {
	if len(free) > lenderSlabs {
		slices.SortFunc(free, func(a, b *[]float64) int { return cap(*b) - cap(*a) })
	}
	for _, p := range free[:min(len(free), lenderSlabs)] {
		l.free.Put(p)
	}
	clear(free) // buf keeps the storage, not the slabs
	l.buf = free
}

// Get implements SlabLender.
func (l *Lender) Get(n int) []float64 {
	l.mu.Lock()
	free := l.take()
	best := -1
	for i, p := range free {
		if cap(*p) >= n && (best < 0 || cap(*p) < cap(*free[best])) {
			best = i
		}
	}
	var s []float64
	if best >= 0 {
		s = (*free[best])[:n]
		free = slices.Delete(free, best, best+1)
		l.stats.Hits++
		l.stats.LentBytes += 8 * int64(cap(s))
	} else {
		l.stats.Misses++
		l.stats.LentBytes += 8 * int64(n)
	}
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
		if &(*p)[0] == &s[0] {
			l.give(free)
			panic("cluster: slab returned to its Lender twice")
		}
	}
	l.stats.LentBytes -= 8 * int64(cap(s))
	l.give(append(free, &s))
}

// Reset lets go of every free slab; the counters stand, and slabs still lent
// come back as usual.
func (l *Lender) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.take())
}

// Stats reads the counters.
func (l *Lender) Stats() LenderStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}
