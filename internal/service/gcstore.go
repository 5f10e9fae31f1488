package service

import (
	"math"
	"slices"
	"sync"
	"weak"

	"op2ca/internal/cluster"
	"op2ca/internal/runspec"
)

// gcStoreKeys bounds the keys a gcStore tracks, because keys come from
// client specs: serve-mixed has four layout keys and two instance keys, and a
// key beyond the bound displaces the least recently used one with whatever
// its pool still holds.
const gcStoreKeys = 64

// gcStore keeps read-only set-up artefacts under the key they are built from,
// so every job after the first of a key — and its restarts, preempted resumes
// and restores — borrows the artefact instead of building it. A hit is shared,
// not lent: concurrent jobs use one copy, which none of them writes.
//
// Unlike the partition store's bytes it is not bounded in bytes but evicted
// by the garbage collector, as cluster.Lender's slabs are: each key's values
// are strongly referenced from a sync.Pool and from nowhere else, every Load
// takes one out and puts it back, which counts as a use, and a key unused for
// two collections holds nothing — so an idle service keeps none, and
// heap_live_mb does not see the store. (DESIGN §5k "Set-up artefacts" has why
// set-up artefacts other than assignments are not kept by byte budget.)
// Beside the pool each key keeps a weak pointer to every value it was given:
// a value parked in the per-P slot of a P other than the caller's, or held
// only by the jobs running on it, is still a hit, and is put back in the pool
// for the caller's P. The zero value is an empty store.
type gcStore[K comparable, T any] struct {
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

// layoutStore is a Service's store of halo layouts (runspec.Layouts), keyed by
// what they are built from (runspec.LayoutKey). A wrong one would be refused
// (*cluster.LayoutsError).
type layoutStore = gcStore[runspec.LayoutKey, cluster.Layouts]

// instanceStore is a Service's store of declared apps — mesh, hierarchy and
// program (runspec.Instances) — keyed by what they are declared from
// (runspec.InstanceKey). Backends only read a program (cluster.Config.Prog),
// and the service runs no seq job, the one backend that writes it.
type instanceStore = gcStore[runspec.InstanceKey, runspec.Instance]

// Load implements runspec.Layouts and runspec.Instances: the value kept under
// k, or nil.
func (s *gcStore[K, T]) Load(k K) *T {
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

// Store implements runspec.Layouts and runspec.Instances.
func (s *gcStore[K, T]) Store(k K, v *T) {
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

// reset lets go of every key and its values; the counters stand.
func (s *gcStore[K, T]) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.pools)
}

// stats reads the counters for /metrics.
func (s *gcStore[K, T]) stats() (hits, misses int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}
