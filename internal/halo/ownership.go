package halo

import (
	"fmt"

	"op2ca/internal/core"
	"op2ca/internal/reuse"
)

// DeriveOwnership assigns an owner rank to every element of every set of the
// program. The primary set's owners are given; every other set inherits
// ownership through maps, transitively (OP2 partitions secondary sets
// "along" their maps): an element of a map's From set takes the owner of its
// first map target, and an element of a To set with no other path takes the
// owner of the first element referencing it. Sets unreachable from the
// primary set through any chain of maps cause an error.
func DeriveOwnership(prog *core.Program, primary *core.Set, primaryOwners []int32) ([][]int32, error) {
	var d derivation
	return d.derive(prog, primary, primaryOwners)
}

// derivation is where ownership is derived: DeriveOwnership's, fresh, makes
// every derived set's owner array; a pooled builder's reuses the arrays of
// the builds before (BuildIn's).
type derivation struct {
	owners  [][]int32 // by set id; the primary set's is the caller's assignment
	slabs   [][]int32 // by set id: the storage a derived set's owners are written to
	claimed []bool    // reverse inheritance: a To element already has its owner
}

// derive is DeriveOwnership into d. The result lives in d (but for the
// primary set's owners) until d derives again.
func (d *derivation) derive(prog *core.Program, primary *core.Set, primaryOwners []int32) ([][]int32, error) {
	if len(primaryOwners) != primary.Size {
		return nil, fmt.Errorf("halo: %d owners for primary set %s of size %d",
			len(primaryOwners), primary.Name, primary.Size)
	}
	d.owners, d.slabs = reuse.Resize(d.owners, len(prog.Sets)), reuse.Resize(d.slabs, len(prog.Sets))
	owners := d.owners
	clear(owners)
	owners[primary.ID] = primaryOwners

	for changed := true; changed; {
		changed = false
		// Forward inheritance: From element -> owner of first target.
		for _, m := range prog.Maps {
			if owners[m.From.ID] != nil || owners[m.To.ID] == nil {
				continue
			}
			to := owners[m.To.ID]
			own := d.slab(m.From)
			for e := 0; e < m.From.Size; e++ {
				own[e] = to[m.Values[e*m.Arity]]
			}
			owners[m.From.ID] = own
			changed = true
		}
		// Reverse inheritance: To element -> owner of the first (lowest
		// index) From element referencing it.
		for _, m := range prog.Maps {
			if owners[m.To.ID] != nil || owners[m.From.ID] == nil {
				continue
			}
			from := owners[m.From.ID]
			own := d.slab(m.To)
			claimed := reuse.Filled(d.claimed, m.To.Size, false)
			d.claimed = claimed
			for e := 0; e < m.From.Size; e++ {
				for _, t := range m.Targets(e) {
					if !claimed[t] {
						claimed[t] = true
						own[t] = from[e]
					}
				}
			}
			for t, ok := range claimed {
				if !ok {
					return nil, fmt.Errorf("halo: set %s element %d unreferenced by map %s; cannot derive its owner",
						m.To.Name, t, m.Name)
				}
			}
			owners[m.To.ID] = own
			changed = true
		}
	}
	for _, s := range prog.Sets {
		if owners[s.ID] == nil {
			if s.Size == 0 {
				owners[s.ID] = []int32{}
				continue
			}
			return nil, fmt.Errorf("halo: set %s has no map path to primary set %s; cannot derive ownership",
				s.Name, primary.Name)
		}
	}
	return owners, nil
}

// slab returns the storage set s's derived owners are written to. It is
// never nil, even for an empty set: a nil owner array marks a set not yet
// derived.
func (d *derivation) slab(s *core.Set) []int32 {
	if s.Size == 0 {
		return []int32{}
	}
	d.slabs[s.ID] = reuse.Resize(d.slabs[s.ID], s.Size)
	return d.slabs[s.ID]
}

// reverseMap is the CSR transpose of a core.Map: for every target element,
// the source elements that reference it.
type reverseMap struct {
	offsets []int32 // len To.Size+1
	sources []int32 // len From.Size*Arity
}

// buildReverse transposes m into offsets (len To.Size+1) and sources (len
// From.Size*Arity), whatever they held: the sources of a target ascend.
func buildReverse(m *core.Map, offsets, sources []int32) reverseMap {
	clear(offsets)
	for _, t := range m.Values {
		offsets[t+1]++
	}
	for i := 1; i <= m.To.Size; i++ {
		offsets[i] += offsets[i-1]
	}
	// offsets[t] is t's fill cursor, and ends at t+1's start: shift it back.
	for e := 0; e < m.From.Size; e++ {
		for _, t := range m.Targets(e) {
			sources[offsets[t]] = int32(e)
			offsets[t]++
		}
	}
	copy(offsets[1:], offsets[:m.To.Size])
	offsets[0] = 0
	return reverseMap{offsets: offsets, sources: sources}
}

// sourcesOf returns the source elements referencing target t.
func (rm reverseMap) sourcesOf(t int32) []int32 {
	return rm.sources[rm.offsets[t]:rm.offsets[t+1]]
}
