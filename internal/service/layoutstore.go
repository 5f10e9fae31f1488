package service

import (
	"math"
	"sync"

	"op2ca/internal/cluster"
	"op2ca/internal/runspec"
)

// layoutStoreKeys bounds the keys a layoutStore tracks: serve-mixed has four,
// and a key beyond the bound displaces the least recently used one with
// whatever its pool still holds.
const layoutStoreKeys = 64

// layoutStore is a Service's store of halo layouts (runspec.Layouts), keyed
// by what they are built from (runspec.LayoutKey), so every job after the
// first of a key — the OP2 and the CA job of one comparison, a supervised
// restart, a preempted job's next attempt, a restore — borrows its layouts
// instead of deriving ownership and running halo.Build. A hit is shared, not
// lent: layouts are read-only (cluster.Layouts), so concurrent backends use
// one copy, and a wrong one would be refused (*cluster.LayoutsError).
//
// Unlike the partition store it is not bounded in bytes but evicted by the
// garbage collector, as cluster.Lender's slabs are: each key's layouts are
// referenced from a sync.Pool and from nowhere else, every Load takes them
// out and puts them back, which counts as a use, and a key unused for two
// collections holds nothing — so an idle service keeps no layout, and
// heap_live_mb does not see the store. (DESIGN §5k has why retaining set-up
// artefacts by byte budget did not pay.) A layout parked in the per-P slot of
// a P other than the caller's is a miss now: two workers can each build and
// store one of a key.
type layoutStore struct {
	mu           sync.Mutex
	pools        map[runspec.LayoutKey]*layoutPool
	tick         uint64
	hits, misses int
}

// layoutPool holds one key's layouts (*cluster.Layouts, no New: an empty
// pool hands over nil) and when the key was last used.
type layoutPool struct {
	sync.Pool
	used uint64
}

func newLayoutStore() *layoutStore {
	return &layoutStore{pools: make(map[runspec.LayoutKey]*layoutPool)}
}

// Load implements runspec.Layouts.
func (s *layoutStore) Load(k runspec.LayoutKey) *cluster.Layouts {
	s.mu.Lock()
	defer s.mu.Unlock()
	var l *cluster.Layouts
	if p := s.pools[k]; p != nil {
		if l, _ = p.Get().(*cluster.Layouts); l != nil {
			p.Put(l)
			s.tick++
			p.used = s.tick
		}
	}
	if l == nil {
		s.misses++
	} else {
		s.hits++
	}
	return l
}

// Store implements runspec.Layouts.
func (s *layoutStore) Store(k runspec.LayoutKey, l *cluster.Layouts) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.pools[k]
	if p == nil {
		if len(s.pools) >= layoutStoreKeys {
			oldest, used := runspec.LayoutKey{}, uint64(math.MaxUint64)
			for key, q := range s.pools {
				if q.used < used {
					oldest, used = key, q.used
				}
			}
			delete(s.pools, oldest)
		}
		p = new(layoutPool)
		s.pools[k] = p
	}
	s.tick++
	p.used = s.tick
	p.Put(l)
}

// reset lets go of every key and its layouts; the counters stand.
func (s *layoutStore) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.pools)
}

// stats reads the counters for /metrics.
func (s *layoutStore) stats() (hits, misses int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}
