package halo

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"op2ca/internal/core"
)

// selem addresses one element of one set during mixed-set graph traversals.
type selem struct {
	set  int32
	elem int32
}

// Build constructs the per-rank local layouts of prog for the given
// per-set ownership (from DeriveOwnership), with halo shells of the given
// depth and core prefixes supporting chains of up to maxChainLen loops.
func Build(prog *core.Program, owners [][]int32, nparts, depth, maxChainLen int) []*Layout {
	if depth < 1 {
		panic(fmt.Sprintf("halo: depth %d < 1", depth))
	}
	if maxChainLen < 1 {
		panic(fmt.Sprintf("halo: maxChainLen %d < 1", maxChainLen))
	}
	if len(owners) != len(prog.Sets) {
		panic(fmt.Sprintf("halo: ownership for %d sets, program has %d", len(owners), len(prog.Sets)))
	}
	nsets := len(prog.Sets)

	// Reverse maps and per-set map indices.
	rev := make([]reverseMap, len(prog.Maps))
	mapsFrom := make([][]*core.Map, nsets)
	mapsTo := make([][]*core.Map, nsets)
	for i, m := range prog.Maps {
		rev[i] = buildReverse(m)
		mapsFrom[m.From.ID] = append(mapsFrom[m.From.ID], m)
		mapsTo[m.To.ID] = append(mapsTo[m.To.ID], m)
	}

	// Owned-element buckets per set and rank.
	ownedBy := make([][][]int32, nsets)
	for s := range ownedBy {
		ownedBy[s] = make([][]int32, nparts)
		for e, r := range owners[s] {
			ownedBy[s][r] = append(ownedBy[s][r], int32(e))
		}
	}

	// Boundary marks: an element is boundary (for its owner) when a map
	// entry connects it to an element with a different owner.
	boundary := make([][]bool, nsets)
	for s, set := range prog.Sets {
		boundary[s] = make([]bool, set.Size)
	}
	for _, m := range prog.Maps {
		fo, to := owners[m.From.ID], owners[m.To.ID]
		for e := 0; e < m.From.Size; e++ {
			for _, t := range m.Targets(e) {
				if fo[e] != to[t] {
					boundary[m.From.ID][e] = true
					boundary[m.To.ID][t] = true
				}
			}
		}
	}

	// Scratch arrays reused across ranks, reset through touched lists.
	status := make([][]int8, nsets) // 0 unknown, 1 owned, 2 exec, 3 nonexec
	ilvl := make([][]int32, nsets)  // interior level of owned elements
	for s, set := range prog.Sets {
		status[s] = make([]int8, set.Size)
		ilvl[s] = make([]int32, set.Size)
	}
	var touched []selem
	var keys []uint64 // sortByKey scratch

	cap32 := int32(2*maxChainLen + 1)
	layouts := make([]*Layout, nparts)

	for rank := 0; rank < nparts; rank++ {
		touched = touched[:0]

		// Mark owned and seed the interior-level BFS from boundary
		// elements.
		var bfs []selem
		for s := 0; s < nsets; s++ {
			for _, e := range ownedBy[s][rank] {
				status[s][e] = 1
				touched = append(touched, selem{int32(s), e})
				if boundary[s][e] {
					ilvl[s][e] = 1
					bfs = append(bfs, selem{int32(s), e})
				}
			}
		}
		boundaryOwned := append([]selem(nil), bfs...)

		// Interior levels: union-graph BFS inward over owned elements.
		relax := func(s2 int32, e2 int32, next int32) []selem {
			if status[s2][e2] == 1 && ilvl[s2][e2] == 0 {
				ilvl[s2][e2] = next
				return []selem{{s2, e2}}
			}
			return nil
		}
		for head := 0; head < len(bfs); head++ {
			cur := bfs[head]
			next := ilvl[cur.set][cur.elem] + 1
			if next > cap32 {
				continue
			}
			for _, m := range mapsFrom[cur.set] {
				for _, t := range m.Targets(int(cur.elem)) {
					bfs = append(bfs, relax(int32(m.To.ID), t, next)...)
				}
			}
			for _, m := range mapsTo[cur.set] {
				for _, a := range rev[m.ID].sourcesOf(cur.elem) {
					bfs = append(bfs, relax(int32(m.From.ID), a, next)...)
				}
			}
		}
		for s := 0; s < nsets; s++ {
			for _, e := range ownedBy[s][rank] {
				if ilvl[s][e] == 0 {
					ilvl[s][e] = cap32 + 1
				}
			}
		}

		// Halo shells.
		execEls := make([][][]int32, nsets)
		nonexecEls := make([][][]int32, nsets)
		for s := 0; s < nsets; s++ {
			execEls[s] = make([][]int32, depth)
			nonexecEls[s] = make([][]int32, depth)
		}
		frontier := boundaryOwned
		for d := 0; d < depth; d++ {
			var next []selem
			// Execute shell: foreign elements with a forward map entry
			// into the current closure (sources of frontier elements).
			for _, cur := range frontier {
				for _, m := range mapsTo[cur.set] {
					sf := int32(m.From.ID)
					for _, a := range rev[m.ID].sourcesOf(cur.elem) {
						if status[sf][a] == 0 {
							status[sf][a] = 2
							execEls[sf][d] = append(execEls[sf][d], a)
							touched = append(touched, selem{sf, a})
							next = append(next, selem{sf, a})
						}
					}
				}
			}
			// Non-execute shell: unseen targets of this shell's execute
			// elements (and of boundary owned elements for shell 1).
			producers := next
			if d == 0 {
				producers = append(append([]selem(nil), next...), boundaryOwned...)
			}
			for _, cur := range producers {
				if status[cur.set][cur.elem] == 3 {
					continue
				}
				for _, m := range mapsFrom[cur.set] {
					st := int32(m.To.ID)
					for _, t := range m.Targets(int(cur.elem)) {
						if status[st][t] == 0 {
							status[st][t] = 3
							nonexecEls[st][d] = append(nonexecEls[st][d], t)
							touched = append(touched, selem{st, t})
							next = append(next, selem{st, t})
						}
					}
				}
			}
			frontier = next
		}

		// Local numbering and per-set layouts.
		l := &Layout{
			Rank: rank, NParts: nparts, Depth: depth, MaxChainLen: maxChainLen,
			Sets: make([]*SetLayout, nsets),
			Maps: make([][]int32, len(prog.Maps)),
		}
		for s, set := range prog.Sets {
			sl := &SetLayout{Set: set}
			own := append([]int32(nil), ownedBy[s][rank]...)
			lv := ilvl[s]
			sortByKey(own, &keys, func(e int32) int32 { return cap32 + 1 - lv[e] })
			sl.NOwned = len(own)
			sl.corePrefix = make([]int32, maxChainLen)
			for loop := 0; loop < maxChainLen; loop++ {
				need := int32(2 * (loop + 1))
				// own is sorted by decreasing level: find the prefix.
				n := sort.Search(len(own), func(i int) bool { return lv[own[i]] < need })
				sl.corePrefix[loop] = int32(n)
			}

			sl.L2G = own
			sl.ExecStart = make([]int32, depth+1)
			sl.ExecStart[0] = int32(len(own))
			sl.ImportExec = make([][]ImportRange, depth)
			sl.ImportNonexec = make([][]ImportRange, depth)
			sl.ExportExec = make([][]ExportList, depth)
			sl.ExportNonexec = make([][]ExportList, depth)

			appendShell := func(els []int32) []ImportRange {
				owner := owners[s]
				sortByKey(els, &keys, func(e int32) int32 { return owner[e] })
				var ranges []ImportRange
				for i := 0; i < len(els); {
					j := i
					for j < len(els) && owners[s][els[j]] == owners[s][els[i]] {
						j++
					}
					ranges = append(ranges, ImportRange{
						Rank:  owners[s][els[i]],
						Start: int32(len(sl.L2G)),
						Count: int32(j - i),
					})
					sl.L2G = append(sl.L2G, els[i:j]...)
					i = j
				}
				return ranges
			}
			for d := 0; d < depth; d++ {
				sl.ImportExec[d] = appendShell(execEls[s][d])
				sl.ExecStart[d+1] = int32(len(sl.L2G))
			}
			sl.NonexecStart = make([]int32, depth+1)
			sl.NonexecStart[0] = int32(len(sl.L2G))
			for d := 0; d < depth; d++ {
				sl.ImportNonexec[d] = appendShell(nonexecEls[s][d])
				sl.NonexecStart[d+1] = int32(len(sl.L2G))
			}
			sl.G2L = make(map[int32]int32, len(sl.L2G))
			for loc, g := range sl.L2G {
				sl.G2L[g] = int32(loc)
			}
			sl.ExecOrder = make([]int32, sl.ExecEnd(depth))
			for i := range sl.ExecOrder {
				sl.ExecOrder[i] = int32(i)
			}
			l2g := sl.L2G
			sortByKey(sl.ExecOrder, &keys, func(loc int32) int32 { return l2g[loc] })
			l.Sets[s] = sl
		}

		// Localized maps: rows for the executable region, -1 elsewhere.
		for mi, m := range prog.Maps {
			from := l.Sets[m.From.ID]
			to := l.Sets[m.To.ID]
			vals := make([]int32, from.Total()*m.Arity)
			for i := range vals {
				vals[i] = -1
			}
			for loc := 0; loc < from.ExecEnd(depth); loc++ {
				g := from.L2G[loc]
				for a := 0; a < m.Arity; a++ {
					tg := m.Values[int(g)*m.Arity+a]
					if tl, ok := to.G2L[tg]; ok {
						vals[loc*m.Arity+a] = tl
					}
				}
			}
			l.Maps[mi] = vals
		}
		layouts[rank] = l

		// Reset scratch.
		for _, c := range touched {
			status[c.set][c.elem] = 0
			ilvl[c.set][c.elem] = 0
		}
	}

	fillExports(prog, layouts)
	fillNeighbours(layouts)
	return layouts
}

// sortByKey sorts els ascending by (key(e), e), both non-negative. The pair
// is packed into one uint64 so the sort runs on an ordered type — no
// comparator call, no reflection-based swapper, no random access into the
// key table per comparison; keys is scratch reused from call to call.
func sortByKey(els []int32, keys *[]uint64, key func(e int32) int32) {
	ks := slices.Grow((*keys)[:0], len(els))[:len(els)]
	for i, e := range els {
		ks[i] = uint64(key(e))<<32 | uint64(e)
	}
	slices.Sort(ks)
	for i, k := range ks {
		els[i] = int32(uint32(k))
	}
	*keys = ks
}

// fillExports derives each rank's export lists from every other rank's
// import ranges, preserving the importer's storage order.
func fillExports(prog *core.Program, layouts []*Layout) {
	for _, l := range layouts {
		for s := range prog.Sets {
			sl := l.Sets[s]
			fill := func(imports [][]ImportRange, exports func(*SetLayout) *[][]ExportList, d int) {
				for _, r := range imports[d] {
					src := layouts[r.Rank].Sets[s]
					locals := make([]int32, r.Count)
					for i := int32(0); i < r.Count; i++ {
						g := sl.L2G[r.Start+i]
						loc, ok := src.G2L[g]
						if !ok || int(loc) >= src.NOwned {
							panic(fmt.Sprintf("halo: rank %d imports %s element %d from rank %d which does not own it",
								l.Rank, sl.Set.Name, g, r.Rank))
						}
						locals[i] = loc
					}
					ex := exports(src)
					(*ex)[d] = append((*ex)[d], ExportList{Rank: int32(l.Rank), Locals: locals})
				}
			}
			for d := 0; d < l.Depth; d++ {
				fill(sl.ImportExec, func(x *SetLayout) *[][]ExportList { return &x.ExportExec }, d)
				fill(sl.ImportNonexec, func(x *SetLayout) *[][]ExportList { return &x.ExportNonexec }, d)
			}
		}
	}
	byRank := func(a, b ExportList) int { return cmp.Compare(a.Rank, b.Rank) }
	for _, l := range layouts {
		for _, sl := range l.Sets {
			for d := 0; d < l.Depth; d++ {
				slices.SortFunc(sl.ExportExec[d], byRank)
				slices.SortFunc(sl.ExportNonexec[d], byRank)
			}
		}
	}
}

func fillNeighbours(layouts []*Layout) {
	for _, l := range layouts {
		seen := make(map[int32]bool)
		for _, sl := range l.Sets {
			for d := 0; d < l.Depth; d++ {
				for _, r := range sl.ImportExec[d] {
					seen[r.Rank] = true
				}
				for _, r := range sl.ImportNonexec[d] {
					seen[r.Rank] = true
				}
				for _, e := range sl.ExportExec[d] {
					seen[e.Rank] = true
				}
				for _, e := range sl.ExportNonexec[d] {
					seen[e.Rank] = true
				}
			}
		}
		l.Neighbours = make([]int32, 0, len(seen))
		for r := range seen {
			l.Neighbours = append(l.Neighbours, r)
		}
		slices.Sort(l.Neighbours)
	}
}
