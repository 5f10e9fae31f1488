package service

import (
	"math"
	"sync"

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
// Unlike the partition store it is not bounded in bytes but evicted by the
// garbage collector, as cluster.Lender's slabs are: each key's values are
// referenced from a sync.Pool and from nowhere else, every Load takes one out
// and puts it back, which counts as a use, and a key unused for two
// collections holds nothing — so an idle service keeps none, and
// heap_live_mb does not see the store. (DESIGN §5k has why retaining set-up
// artefacts by byte budget did not pay.) A value parked in the per-P slot of a
// P other than the caller's is a miss now: two workers can each build and
// store one of a key. The zero value is an empty store.
type gcStore[K comparable, V any] struct {
	mu           sync.Mutex
	pools        map[K]*gcPool
	tick         uint64
	hits, misses int
}

// gcPool holds one key's values (no New: an empty pool hands over nil) and
// when the key was last used.
type gcPool struct {
	sync.Pool
	used uint64
}

// layoutStore is a Service's store of halo layouts (runspec.Layouts), keyed by
// what they are built from (runspec.LayoutKey). A wrong one would be refused
// (*cluster.LayoutsError).
type layoutStore = gcStore[runspec.LayoutKey, *cluster.Layouts]

// instanceStore is a Service's store of declared apps — mesh, hierarchy and
// program (runspec.Instances) — keyed by what they are declared from
// (runspec.InstanceKey). Backends only read a program (cluster.Config.Prog),
// and the service runs no seq job, the one backend that writes it.
type instanceStore = gcStore[runspec.InstanceKey, *runspec.Instance]

// Load implements runspec.Layouts and runspec.Instances: the value kept under
// k, or V's zero value.
func (s *gcStore[K, V]) Load(k K) V {
	s.mu.Lock()
	defer s.mu.Unlock()
	var v V
	ok := false
	if p := s.pools[k]; p != nil {
		if v, ok = p.Get().(V); ok {
			p.Put(v)
			s.tick++
			p.used = s.tick
		}
	}
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return v
}

// Store implements runspec.Layouts and runspec.Instances.
func (s *gcStore[K, V]) Store(k K, v V) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.pools[k]
	if p == nil {
		if s.pools == nil {
			s.pools = make(map[K]*gcPool)
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
		p = new(gcPool)
		s.pools[k] = p
	}
	s.tick++
	p.used = s.tick
	p.Put(v)
}

// reset lets go of every key and its values; the counters stand.
func (s *gcStore[K, V]) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.pools)
}

// stats reads the counters for /metrics.
func (s *gcStore[K, V]) stats() (hits, misses int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}
