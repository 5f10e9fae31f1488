package halo

import (
	"fmt"

	"op2ca/internal/core"
)

// DeriveOwnership assigns an owner rank to every element of every set of the
// program. The primary set's owners are given; every other set inherits
// ownership through maps, transitively (OP2 partitions secondary sets
// "along" their maps): an element of a map's From set takes the owner of its
// first map target, and an element of a To set with no other path takes the
// owner of the first element referencing it. Sets unreachable from the
// primary set through any chain of maps cause an error.
func DeriveOwnership(prog *core.Program, primary *core.Set, primaryOwners []int32) ([][]int32, error) {
	if len(primaryOwners) != primary.Size {
		return nil, fmt.Errorf("halo: %d owners for primary set %s of size %d",
			len(primaryOwners), primary.Name, primary.Size)
	}
	owners := make([][]int32, len(prog.Sets))
	owners[primary.ID] = primaryOwners

	for changed := true; changed; {
		changed = false
		// Forward inheritance: From element -> owner of first target.
		for _, m := range prog.Maps {
			if owners[m.From.ID] != nil || owners[m.To.ID] == nil {
				continue
			}
			to := owners[m.To.ID]
			own := make([]int32, m.From.Size)
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
			own := make([]int32, m.To.Size)
			claimed := make([]bool, m.To.Size)
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
