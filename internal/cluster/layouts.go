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
// ones included, share one (Config.Layouts). It holds pointer-free slices and
// the slices that hold them, nothing of the program or the assignment it was
// built from (a schedule names dats by ID): whoever keeps it keeps no job's
// data alive. Per-set ownership is not kept either; each rank's layout names
// what it owns (L2G[:NOwned]).
type Layouts struct {
	ranks  []*halo.Layout
	assign string // assignHash of the assignment

	// schedules memoises the exchange schedules built over these layouts for
	// every backend built on them, by spec fingerprint, up to maxSchedules: a
	// schedule is a function of the layouts, the spec set and the grouping
	// only (see buildSchedule), and read-only once built. It is the only
	// schedule memo: every exchange of every backend on the layouts, a
	// restore's halo refill included, looks here.
	mu        sync.Mutex
	schedules map[string]*exchangeSchedule
}

// schedule returns the exchange schedule of specs under grouping, whose
// fingerprint is fp: the one memoised here, or one built now and memoised
// while there is room. Two backends that miss on one fingerprint at once both
// build it, and both get the first one memoised.
func (l *Layouts) schedule(fp []byte, specs []exchangeSpec, grouped bool) *exchangeSchedule {
	l.mu.Lock()
	s := l.schedules[string(fp)]
	l.mu.Unlock()
	if s != nil {
		return s
	}
	s = l.buildSchedule(specs, grouped)
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev := l.schedules[string(fp)]; prev != nil {
		return prev
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
		return b.cfg.Layouts.buildSchedule(specs, grouped)
	}
	return b.cfg.Layouts.schedule(fp, specs, grouped)
}

// NewLayouts builds the layouts cfg describes — what New builds when
// cfg.Layouts is nil — for a caller that hands them to later backends of the
// same program shape, partition, rank count, depth and chain length.
func NewLayouts(cfg Config) (*Layouts, error) {
	cfg, err := cfg.shaped()
	if err != nil {
		return nil, err
	}
	return buildLayouts(cfg)
}

// buildLayouts derives ownership and builds every rank's layout for a shaped
// configuration.
func buildLayouts(cfg Config) (*Layouts, error) {
	owners, err := halo.DeriveOwnership(cfg.Prog, cfg.Primary, cfg.Assign)
	if err != nil {
		return nil, err
	}
	return &Layouts{
		ranks:  halo.Build(cfg.Prog, owners, cfg.NParts, cfg.Depth, cfg.MaxChainLen),
		assign: assignHash(cfg.Assign),
	}, nil
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
			n += r.Sets[s.ID].NOwned
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
