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
// The free list is one object, strongly referenced from a sync.Pool and from
// nowhere else, so the garbage collector is the eviction policy: every Get
// and Put takes it from the pool and puts it back, which counts as a use, and
// a Lender nobody borrows from for two collections holds nothing — an idle
// owner retains no slab, and none outlives the Lender. Slabs are
// pointer-free, so while they are held a collection marks them in no time.
// The pool does not hand over what sits in another P's private slot, so the
// Lender keeps one weak pointer to the list, made with it, and finds it
// through that when the pool hands over nothing: a call takes the list once,
// whatever it holds. The zero value is an empty Lender.
type Lender struct {
	mu   sync.Mutex
	pool sync.Pool // of *freeList, no New: an empty pool hands over nil
	// handle reaches the free list, in whichever P's slot it is parked.
	handle weak.Pointer[freeList]
	// out counts the slabs lent now; peak is the most ever lent at once.
	out, peak int
	stats     LenderStats
}

// freeList is a Lender's free slabs by capacity, ascending. A slab lent
// leaves a hole — a nil entry that keeps its capacity — which the next slab
// of that capacity to come back fills, so a slab lent and returned moves
// nothing; holes are swept out once they are half the list.
type freeList struct {
	caps  []int
	slabs [][]float64
	holes int
}

// LenderStats are a Lender's counters: Gets served by a returned slab, Gets
// that made a new one, and the bytes lent out now.
type LenderStats struct {
	Hits, Misses int64
	LentBytes    int64
}

// list returns the free list: the pool's, else the one the handle reaches,
// else a new one with its handle. Callers hold mu and put it back in the pool.
func (l *Lender) list() *freeList {
	f, _ := l.pool.Get().(*freeList)
	if f == nil {
		f = l.handle.Value()
	}
	if f == nil {
		f = new(freeList)
		l.handle = weak.Make(f)
	}
	return f
}

// Get implements SlabLender.
func (l *Lender) Get(n int) []float64 {
	l.mu.Lock()
	f := l.list()
	i, _ := slices.BinarySearch(f.caps, n)
	for i < len(f.slabs) && f.slabs[i] == nil {
		i++
	}
	var s []float64 // nil on a miss: a hit's slab is not
	if i < len(f.slabs) {
		s, f.slabs[i] = f.slabs[i][:n], nil
		f.holes++
		l.stats.Hits++
	} else {
		l.stats.Misses++
	}
	l.stats.LentBytes += 8 * int64(max(cap(s), n))
	l.out++
	l.peak = max(l.peak, l.out)
	l.pool.Put(f)
	l.mu.Unlock()
	if s == nil {
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
	f := l.list()
	defer l.pool.Put(f)
	i, _ := slices.BinarySearch(f.caps, cap(s))
	hole := -1
	for j := i; j < len(f.caps) && f.caps[j] == cap(s); j++ {
		switch {
		case f.slabs[j] == nil:
			hole = max(hole, j)
		case &f.slabs[j][0] == &s[0]:
			panic("cluster: slab returned to its Lender twice")
		}
	}
	l.out = max(l.out-1, 0)
	l.stats.LentBytes -= 8 * int64(cap(s))
	if hole >= 0 {
		f.slabs[hole] = s
		f.holes--
	} else {
		f.caps, f.slabs = slices.Insert(f.caps, i, cap(s)), slices.Insert(f.slabs, i, s)
	}
	// More free than were ever lent at once: let the smallest go.
	for j := 0; len(f.slabs)-f.holes > l.peak; j++ {
		if f.slabs[j] != nil {
			f.slabs[j] = nil
			f.holes++
		}
	}
	if 2*f.holes > len(f.slabs) {
		f.sweep()
	}
}

// sweep drops the holes.
func (f *freeList) sweep() {
	k := 0
	for j, s := range f.slabs {
		if s != nil {
			f.caps[k], f.slabs[k] = f.caps[j], s
			k++
		}
	}
	clear(f.slabs[k:])
	f.caps, f.slabs, f.holes = f.caps[:k], f.slabs[:k], 0
}

// Reset lets go of every free slab; the counters stand, and slabs still lent
// come back as usual.
func (l *Lender) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	f := l.list()
	clear(f.slabs)
	f.sweep()
	l.pool.Put(f)
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
	int32 | halo.Range | copySeg | netsim.Message
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
