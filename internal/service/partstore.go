package service

import (
	"container/list"
	"sync"

	"op2ca/internal/partition"
	"op2ca/internal/runspec"
)

// partStoreBudget bounds what a Service retains in partition assignments:
// five of a MaxMeshNodes mesh, a few hundred of the default one.
const partStoreBudget = 1 << 20

// partEntryOverhead is what an entry is charged beside its one byte per
// vertex — its list element, map slot and key — so that the budget bounds
// the store's memory on small meshes too, where the bookkeeping is most of it.
const partEntryOverhead = 192

// An assignment is kept as one byte per vertex: no admitted job has more
// ranks than a byte can name.
const _ = uint8(MaxRanks - 1)

// partStore is a Service's store of partition assignments: of everything a
// job's set-up derives from its description, the one artefact that is
// expensive per retained byte — milliseconds of partitioner for a few KB —
// where a mesh or a halo layout costs about as much to rebuild as to trace
// through every collection a served job triggers (DESIGN §5k has the
// measurements). It is keyed by what determines an assignment
// (runspec.AssignmentKey), so the OP2 and the CA job of one comparison, and
// every later job on the same mesh and rank count, partition once. Bounded
// in bytes, least recently used out first; an assignment that alone exceeds
// the budget is not kept. Two workers that miss on one key both compute —
// the bytes are the same, and the second Store keeps the first's.
//
// Nothing is shared with a job: Load expands the bytes into a slice of the
// job's own and Store packs a copy, so no code downstream of a Problem has
// to promise it leaves Assign alone.
type partStore struct {
	budget int

	mu      sync.Mutex
	entries map[runspec.AssignmentKey]*list.Element // of *partEntry
	lru     *list.List                              // most recently used first
	bytes   int                                     // charged to the budget
	hits    int
	misses  int
}

type partEntry struct {
	key   runspec.AssignmentKey
	ranks []uint8 // the assignment, never written after Store
}

func newPartStore(budget int) *partStore {
	return &partStore{budget: budget, entries: make(map[runspec.AssignmentKey]*list.Element), lru: list.New()}
}

// Load implements runspec.Assignments.
func (s *partStore) Load(k runspec.AssignmentKey) partition.Assignment {
	s.mu.Lock()
	el := s.entries[k]
	if el == nil {
		s.misses++
		s.mu.Unlock()
		return nil
	}
	s.hits++
	s.lru.MoveToFront(el)
	ranks := el.Value.(*partEntry).ranks
	s.mu.Unlock()
	a := make(partition.Assignment, len(ranks))
	for v, r := range ranks {
		a[v] = int32(r)
	}
	return a
}

// Store implements runspec.Assignments.
func (s *partStore) Store(k runspec.AssignmentKey, a partition.Assignment) {
	cost := len(a) + partEntryOverhead
	if cost > s.budget {
		return
	}
	ranks := make([]uint8, len(a))
	for v, r := range a {
		ranks[v] = uint8(r)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el := s.entries[k]; el != nil {
		s.lru.MoveToFront(el)
		return
	}
	s.entries[k] = s.lru.PushFront(&partEntry{key: k, ranks: ranks})
	s.bytes += cost
	for s.bytes > s.budget {
		e := s.lru.Remove(s.lru.Back()).(*partEntry)
		delete(s.entries, e.key)
		s.bytes -= len(e.ranks) + partEntryOverhead
	}
}

// reset lets go of every assignment; the counters stand.
func (s *partStore) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.entries)
	s.lru.Init()
	s.bytes = 0
}

// stats reads the counters and the bytes charged for /metrics.
func (s *partStore) stats() (hits, misses, bytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, s.bytes
}
