package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"

	"op2ca/internal/halo"
)

// Layouts is the partitioned view a backend is built on: every rank's halo
// layout (halo.DeriveOwnership, then halo.Build) and the hash of the
// assignment it was derived from, and the exchange schedules built over them.
// The layouts are immutable once built — nothing in this package writes to a
// layout — and so is every schedule, so any number of backends, concurrent
// ones included, share one (Config.Layouts). It holds flat, pointer-free
// slabs and the few slices that cut them, nothing of the program or the
// assignment it was built from (a schedule names dats by ID): whoever keeps it
// keeps no job's data alive. Per-set ownership is not kept either; each
// rank's layout names what it owns (L2G()[:NOwned]).
//
// Layouts NewLayouts built with a lender (Config.Slabs) borrowed those slabs,
// and the memoised schedules borrow theirs as they are built; Release hands
// all of it back once no backend is built on them any more. Layouts made
// without a lender need no Release: the collector takes them.
type Layouts struct {
	ranks  []*halo.Layout
	assign string // assignHash of the assignment

	mu sync.Mutex
	// schedules memoises the exchange schedules built over these layouts for
	// every backend built on them, by spec fingerprint, up to maxSchedules: a
	// schedule is a function of the layouts, the spec set and the grouping
	// only (see buildSchedule), and read-only once built. It is the only
	// schedule memo: every exchange of every backend on the layouts, a
	// restore's halo refill included, looks here.
	schedules map[string]*exchangeSchedule
	// store is where the layouts' and the schedules' storage came from: made,
	// or borrowed and noted for Release.
	store arena
	// open counts the backends built on the layouts and not yet closed;
	// released is set by Release.
	open     int
	released bool
}

// arena is where a Layouts takes its storage: borrowed from slabs when there
// is a lender, and noted in lent for the one Release that gives it back; made
// otherwise. It is the halo.Storage the layouts are built in.
type arena struct {
	slabs SlabLender
	lent  [][]float64
}

// words returns n words of storage: borrowed and noted when a has a lender,
// made otherwise.
func (a *arena) words(n int) []float64 {
	if a == nil || a.slabs == nil || n == 0 {
		return make([]float64, n)
	}
	s := a.slabs.Get(n)
	a.lent = append(a.lent, s)
	return s
}

// take returns n values of T from a.
func take[T lendable](a *arena, n int) []T {
	w := a.words(words[T](n))
	return view[T](&w, n)
}

func (a *arena) Int32s(n int) []int32      { return take[int32](a, n) }
func (a *arena) Ranges(n int) []halo.Range { return take[halo.Range](a, n) }

// giveBack returns everything a borrowed.
func (a *arena) giveBack() {
	for _, s := range a.lent {
		a.slabs.Put(s)
	}
	a.lent = nil
}

// ReleaseError is the panic of a Layouts.Release that would hand back
// storage still in use — Open backends are built on the layouts, or they
// were Released before — and the error of New on released layouts.
type ReleaseError struct {
	Open     int
	Released bool
}

func (e *ReleaseError) Error() string {
	if e.Released {
		return "cluster: layouts used after their Release"
	}
	return fmt.Sprintf("cluster: layouts released with %d backends still open on them", e.Open)
}

// Release gives back everything the layouts and their memoised schedules
// borrowed, and forgets the schedules. It panics with a *ReleaseError while a
// backend built on them is open, and on a second call; a backend built on them
// after it fails with one.
func (l *Layouts) Release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.released || l.open > 0 {
		panic(&ReleaseError{Open: l.open, Released: l.released})
	}
	l.released, l.ranks, l.schedules = true, nil, nil
	l.store.giveBack()
}

// acquire counts one more backend open on the layouts, or refuses released
// ones; leave, called by the backend's Close, counts it out.
func (l *Layouts) acquire() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.released {
		return &ReleaseError{Released: true}
	}
	l.open++
	return nil
}

func (l *Layouts) leave() {
	l.mu.Lock()
	l.open--
	l.mu.Unlock()
}

// schedule returns the exchange schedule of specs under grouping, whose
// fingerprint is fp: the one memoised here, or one built now and memoised
// while there is room. A schedule built while there is room borrows its
// storage when the layouts do, and it goes back with theirs. Two backends
// that miss on one fingerprint at once both build it, and both get the first
// one memoised; the second's storage goes back at once.
func (l *Layouts) schedule(fp []byte, specs []exchangeSpec, grouped bool) *exchangeSchedule {
	l.mu.Lock()
	s := l.schedules[string(fp)]
	var a *arena
	if s == nil && l.store.slabs != nil && len(l.schedules) < maxSchedules {
		a = &arena{slabs: l.store.slabs}
	}
	l.mu.Unlock()
	if s != nil {
		return s
	}
	s = l.buildSchedule(specs, grouped, a)
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev := l.schedules[string(fp)]; prev != nil {
		if a != nil {
			a.giveBack()
		}
		return prev
	}
	if a != nil {
		l.store.lent = append(l.store.lent, a.lent...)
	}
	if len(l.schedules) < maxSchedules {
		if l.schedules == nil {
			l.schedules = make(map[string]*exchangeSchedule)
		}
		l.schedules[string(fp)] = s
	}
	return s
}

// sharedSchedule is the schedule of specs under grouping, fingerprinted fp,
// from the backend's layouts (Layouts.schedule) — or, with the plan cache
// off, built for the occasion.
func (b *Backend) sharedSchedule(fp []byte, specs []exchangeSpec, grouped bool) *exchangeSchedule {
	if b.cfg.NoPlanCache {
		return b.cfg.Layouts.buildSchedule(specs, grouped, nil)
	}
	return b.cfg.Layouts.schedule(fp, specs, grouped)
}

// NewLayouts builds the layouts cfg describes — what New builds when
// cfg.Layouts is nil — for a caller that hands them to later backends of the
// same program shape, partition, rank count, depth and chain length. With a
// lender in cfg.Slabs they borrow their storage from it, and the caller must
// Release them once the last backend built on them is closed.
func NewLayouts(cfg Config) (*Layouts, error) {
	cfg, err := cfg.shaped()
	if err != nil {
		return nil, err
	}
	return buildLayouts(cfg, cfg.Slabs)
}

// buildLayouts derives ownership and builds every rank's layout for a shaped
// configuration, borrowing from slabs when it is not nil.
func buildLayouts(cfg Config, slabs SlabLender) (*Layouts, error) {
	owners, err := halo.DeriveOwnership(cfg.Prog, cfg.Primary, cfg.Assign)
	if err != nil {
		return nil, err
	}
	l := &Layouts{assign: assignHash(cfg.Assign), store: arena{slabs: slabs}}
	l.ranks = halo.BuildIn(&l.store, cfg.Prog, owners, cfg.NParts, cfg.Depth, cfg.MaxChainLen)
	return l, nil
}

// fit checks that the layouts were built from what a shaped cfg describes:
// its rank count, depth and chain length, its program's sets and their sizes
// (each set's owned elements summed over the ranks) and its assignment. So a
// store that hands out layouts under a wrong key costs a failed job, never a
// wrong result.
func (l *Layouts) fit(cfg Config) error {
	if len(l.ranks) != cfg.NParts {
		return &LayoutsError{What: "NParts", Have: len(l.ranks), Want: cfg.NParts}
	}
	first := l.ranks[0]
	switch {
	case first.Depth != cfg.Depth:
		return &LayoutsError{What: "Depth", Have: first.Depth, Want: cfg.Depth}
	case first.MaxChainLen != cfg.MaxChainLen:
		return &LayoutsError{What: "MaxChainLen", Have: first.MaxChainLen, Want: cfg.MaxChainLen}
	case len(first.Sets) != len(cfg.Prog.Sets):
		return &LayoutsError{What: "number of sets", Have: len(first.Sets), Want: len(cfg.Prog.Sets)}
	}
	for _, s := range cfg.Prog.Sets {
		n := 0
		for _, r := range l.ranks {
			n += r.SetL(s).NOwned
		}
		if n != s.Size {
			return &LayoutsError{What: "size of set " + s.Name, Have: n, Want: s.Size}
		}
	}
	if h := assignHash(cfg.Assign); h != l.assign {
		return &LayoutsError{What: "assignment hash", Have: l.assign, Want: h}
	}
	return nil
}

// LayoutsError reports prebuilt layouts (Config.Layouts) that were not built
// from what the configuration describes. New refuses them: a backend whose
// ranks disagree with its program would compute a wrong result.
type LayoutsError struct {
	// What names the input that differs; Have is the layouts' value, Want the
	// configuration's.
	What       string
	Have, Want any
}

func (e *LayoutsError) Error() string {
	return fmt.Sprintf("cluster: prebuilt layouts do not fit the configuration: %s %v, want %v", e.What, e.Have, e.Want)
}

// assignHash is the FNV-1a hash of a partition assignment, as the checkpoint
// fingerprint renders it.
func assignHash(assign []int32) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, a := range assign {
		binary.LittleEndian.PutUint32(buf[:], uint32(a))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
