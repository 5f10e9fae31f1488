package runspec

import (
	"math"
	"slices"
	"sync"
	"weak"
)

// gcStoreKeys bounds the keys a GCStore tracks, because the service's keys
// come from client specs: serve-mixed has four layout keys and two instance
// keys, and a key beyond the bound displaces the least recently used one with
// whatever its pool still holds.
const gcStoreKeys = 64

// GCStore keeps read-only set-up artefacts under the key they are built from,
// so every run after the first of a key borrows the artefact instead of
// building it. A hit is shared, not lent: concurrent runs use one copy, which
// none of them writes. It is the program's one implementation of Layouts and
// Instances: the job service keeps its layouts, instances and expanded
// assignments in three, and the paper harness the declared apps of each
// registry of experiments in one.
//
// It is not bounded in bytes but evicted by the garbage collector, as
// cluster.Lender's slabs are: each key's values are strongly referenced from a
// sync.Pool and from nowhere else, every Load takes one out and puts it back,
// which counts as a use, and a key unused for two collections holds nothing —
// so an idle owner keeps none, and heap_live_mb does not see the store.
// (DESIGN §5k "Set-up artefacts" has why set-up artefacts other than
// assignments are not kept by byte budget.) Beside the pool each key keeps a
// weak pointer to every value it was given: a value parked in the per-P slot
// of a P other than the caller's, or held only by the runs using it, is still
// a hit, and is put back in the pool for the caller's P. The zero value is an
// empty store, safe for concurrent use.
type GCStore[K comparable, T any] struct {
	mu           sync.Mutex
	pools        map[K]*gcPool[T]
	tick         uint64
	hits, misses int
}

// gcPool holds one key's values (no New: an empty pool hands over nil), weak
// pointers to every one of them still alive, and when the key was last used.
type gcPool[T any] struct {
	sync.Pool
	alive []weak.Pointer[T]
	used  uint64
}

// find returns a value of the key that is still alive anywhere in the
// process, forgetting the ones that are not; nil when there is none.
func (p *gcPool[T]) find() *T {
	var v *T
	p.alive = slices.DeleteFunc(p.alive, func(w weak.Pointer[T]) bool {
		if v == nil {
			v = w.Value()
			return v == nil
		}
		return w.Value() == nil
	})
	return v
}

// Load implements Layouts and Instances: the value kept under k, or nil.
func (s *GCStore[K, T]) Load(k K) *T {
	s.mu.Lock()
	defer s.mu.Unlock()
	var v *T
	if p := s.pools[k]; p != nil {
		if v, _ = p.Get().(*T); v == nil {
			v = p.find()
		}
		if v != nil {
			p.Put(v)
			s.tick++
			p.used = s.tick
		}
	}
	if v != nil {
		s.hits++
	} else {
		s.misses++
	}
	return v
}

// Store implements Layouts and Instances.
func (s *GCStore[K, T]) Store(k K, v *T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.pools[k]
	if p == nil {
		if s.pools == nil {
			s.pools = make(map[K]*gcPool[T])
		}
		if len(s.pools) >= gcStoreKeys {
			var oldest K
			used := uint64(math.MaxUint64)
			for key, q := range s.pools {
				if q.used < used {
					oldest, used = key, q.used
				}
			}
			delete(s.pools, oldest)
		}
		p = new(gcPool[T])
		s.pools[k] = p
	}
	s.tick++
	p.used = s.tick
	p.Put(v)
	p.find() // forget the dead
	if w := weak.Make(v); !slices.Contains(p.alive, w) {
		p.alive = append(p.alive, w)
	}
}

// Reset lets go of every key and its values; the counters stand.
func (s *GCStore[K, T]) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.pools)
}

// Stats reads the counters: Loads that found a value, and Loads that did not.
func (s *GCStore[K, T]) Stats() (hits, misses int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

// Held counts the keys the store tracks and the values it can still hand
// out: alive anywhere in the process, in its pools or not.
func (s *GCStore[K, T]) Held() (keys, values int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.pools {
		for _, w := range p.alive {
			if w.Value() != nil {
				values++
			}
		}
	}
	return len(s.pools), values
}
