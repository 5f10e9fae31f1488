package halo

import (
	"fmt"
	"math"
	"slices"

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
// The package comment describes the passes and their cost.
func Build(prog *core.Program, owners [][]int32, nparts, depth, maxChainLen int) []*Layout {
	layouts, ownerLocal := buildLayouts(prog, owners, nparts, depth, maxChainLen)
	fillExports(layouts, ownerLocal)
	return layouts
}

// buildLayouts is Build up to (not including) the export and neighbour lists.
// ownerLocal[s][g] is the local index element g of set s has on its owner.
func buildLayouts(prog *core.Program, owners [][]int32, nparts, depth, maxChainLen int) ([]*Layout, [][]int32) {
	if depth < 1 {
		panic(fmt.Sprintf("halo: depth %d < 1", depth))
	}
	if maxChainLen < 1 {
		panic(fmt.Sprintf("halo: maxChainLen %d < 1", maxChainLen))
	}
	if len(owners) != len(prog.Sets) {
		panic(fmt.Sprintf("halo: ownership for %d sets, program has %d", len(owners), len(prog.Sets)))
	}
	b := newBuilder(prog, owners, nparts, depth, maxChainLen)
	layouts := make([]*Layout, nparts)
	for rank := range layouts {
		nb := b.interiorLevels(rank)
		b.shells(nb)
		layouts[rank] = b.number(rank)
		b.reset(layouts[rank])
	}
	return layouts, b.ownerLocal
}

// builder is the scratch of one Build call. Everything indexed by global
// element id is sized once and, where it is per rank, restored by reset
// through the rank's own L2G; every list is truncated and refilled, never
// reallocated per rank. Nothing here outlives the call.
type builder struct {
	prog                       *core.Program
	owners                     [][]int32
	nparts, depth, maxChainLen int
	maxLevel                   int32 // levels are capped at 2*maxChainLen+1; deeper is maxLevel

	rev              []reverseMap
	mapsFrom, mapsTo [][]*core.Map // by set id
	ownedBy          [][][]int32   // [set][rank] owned globals, ascending
	boundary         [][]bool      // [set][g]: a map entry joins g to another owner's element
	ownerLocal       [][]int32     // [set][g]: g's local index on its owner, -1 until numbered

	// Per rank, reset through L2G.
	status [][]int8  // [set][g]: 0 unknown, 1 owned, 2 execute halo, 3 non-execute halo
	level  [][]int32 // [set][g]: interior level of owned elements, 0 unset
	g2l    [][]int32 // [set][g]: local index, -1 absent

	queue, frontier, next []selem     // BFS queue; shell frontiers
	exec, nonexec         [][][]int32 // [set][shell] globals; number sorts each ascending
	levelStart            []int32     // counting sort of owned elements by level
	perRank, ranks        []int32     // counting sort of a shell by owner: counts/cursors, distinct owners
	heads                 []int       // execOrder's cursor into each shell
}

func newBuilder(prog *core.Program, owners [][]int32, nparts, depth, maxChainLen int) *builder {
	nsets := len(prog.Sets)
	b := &builder{
		prog: prog, owners: owners, nparts: nparts, depth: depth, maxChainLen: maxChainLen,
		maxLevel: int32(2*maxChainLen + 2),
		rev:      make([]reverseMap, len(prog.Maps)),
		mapsFrom: make([][]*core.Map, nsets), mapsTo: make([][]*core.Map, nsets),
		ownedBy: make([][][]int32, nsets), boundary: make([][]bool, nsets), ownerLocal: make([][]int32, nsets),
		status: make([][]int8, nsets), level: make([][]int32, nsets), g2l: make([][]int32, nsets),
		exec: make([][][]int32, nsets), nonexec: make([][][]int32, nsets),
		levelStart: make([]int32, 2*maxChainLen+3), perRank: make([]int32, nparts), heads: make([]int, depth),
	}
	for i, m := range prog.Maps {
		b.rev[i] = buildReverse(m)
		b.mapsFrom[m.From.ID] = append(b.mapsFrom[m.From.ID], m)
		b.mapsTo[m.To.ID] = append(b.mapsTo[m.To.ID], m)
	}
	for s, set := range prog.Sets {
		b.boundary[s] = make([]bool, set.Size)
		b.status[s] = make([]int8, set.Size)
		b.level[s] = make([]int32, set.Size)
		b.ownerLocal[s] = make([]int32, set.Size)
		b.g2l[s] = make([]int32, set.Size)
		for g := range b.g2l[s] {
			b.ownerLocal[s][g], b.g2l[s][g] = -1, -1
		}
		b.exec[s] = make([][]int32, depth)
		b.nonexec[s] = make([][]int32, depth)

		// Ownership buckets: one counting pass, one slab per set.
		first := make([]int32, nparts+1)
		for _, r := range owners[s] {
			first[r+1]++
		}
		for r := 0; r < nparts; r++ {
			first[r+1] += first[r]
		}
		slab := make([]int32, set.Size)
		b.ownedBy[s] = make([][]int32, nparts)
		for r := range b.ownedBy[s] {
			b.ownedBy[s][r] = slab[first[r]:first[r]:first[r+1]]
		}
		for g, r := range owners[s] {
			b.ownedBy[s][r] = append(b.ownedBy[s][r], int32(g))
		}
	}
	// Boundary marks.
	for _, m := range prog.Maps {
		fo, to := owners[m.From.ID], owners[m.To.ID]
		fb, tb := b.boundary[m.From.ID], b.boundary[m.To.ID]
		for e := range fo {
			for _, t := range m.Targets(e) {
				if fo[e] != to[t] {
					fb[e], tb[t] = true, true
				}
			}
		}
	}
	return b
}

// interiorLevels marks rank's owned elements and levels them by union-graph
// BFS inward from the partition boundary (level 1), to at most maxLevel-1;
// owned elements the capped search never reaches get maxLevel. It returns
// the number of boundary elements, which lead b.queue.
func (b *builder) interiorLevels(rank int) int {
	b.queue = b.queue[:0]
	for s := range b.ownedBy {
		status, level, boundary := b.status[s], b.level[s], b.boundary[s]
		for _, e := range b.ownedBy[s][rank] {
			status[e] = 1
			if boundary[e] {
				level[e] = 1
				b.queue = append(b.queue, selem{int32(s), e})
			}
		}
	}
	nb := len(b.queue)
	for head := 0; head < len(b.queue); head++ {
		cur := b.queue[head]
		next := b.level[cur.set][cur.elem] + 1
		if next >= b.maxLevel {
			continue
		}
		for _, m := range b.mapsFrom[cur.set] {
			status, level := b.status[m.To.ID], b.level[m.To.ID]
			for _, t := range m.Targets(int(cur.elem)) {
				if status[t] == 1 && level[t] == 0 {
					level[t] = next
					b.queue = append(b.queue, selem{int32(m.To.ID), t})
				}
			}
		}
		for _, m := range b.mapsTo[cur.set] {
			status, level := b.status[m.From.ID], b.level[m.From.ID]
			for _, a := range b.rev[m.ID].sourcesOf(cur.elem) {
				if status[a] == 1 && level[a] == 0 {
					level[a] = next
					b.queue = append(b.queue, selem{int32(m.From.ID), a})
				}
			}
		}
	}
	return nb
}

// shells grows the halo shells outward from the nb boundary elements at the
// head of b.queue, collecting each shell's globals per set. Which elements a
// shell holds does not depend on traversal order; number orders them.
func (b *builder) shells(nb int) {
	frontier := b.queue[:nb]
	for d := 0; d < b.depth; d++ {
		for s := range b.exec {
			b.exec[s][d], b.nonexec[s][d] = b.exec[s][d][:0], b.nonexec[s][d][:0]
		}
		next := b.next[:0]
		// Execute shell: foreign elements with a forward map entry into
		// the current closure (sources of frontier elements).
		for _, cur := range frontier {
			for _, m := range b.mapsTo[cur.set] {
				sf := m.From.ID
				status := b.status[sf]
				for _, a := range b.rev[m.ID].sourcesOf(cur.elem) {
					if status[a] == 0 {
						status[a] = 2
						b.exec[sf][d] = append(b.exec[sf][d], a)
						next = append(next, selem{int32(sf), a})
					}
				}
			}
		}
		// Non-execute shell: unseen targets of this shell's execute
		// elements (and of boundary owned elements for shell 1).
		for i, nexec := 0, len(next); i < nexec; i++ {
			next = b.unseenTargets(next[i], d, next)
		}
		if d == 0 {
			for _, cur := range frontier {
				next = b.unseenTargets(cur, d, next)
			}
		}
		b.frontier, b.next = next, b.frontier
		frontier = next
	}
}

// unseenTargets puts cur's not yet seen map targets into non-execute shell
// d+1 and appends them to next.
func (b *builder) unseenTargets(cur selem, d int, next []selem) []selem {
	for _, m := range b.mapsFrom[cur.set] {
		st := m.To.ID
		status := b.status[st]
		for _, t := range m.Targets(int(cur.elem)) {
			if status[t] == 0 {
				status[t] = 3
				b.nonexec[st][d] = append(b.nonexec[st][d], t)
				next = append(next, selem{int32(st), t})
			}
		}
	}
	return next
}

// number assigns rank's local numbering — owned elements by decreasing
// interior level then ascending global id, then each shell grouped by owner
// and ascending within an owner — and from it the canonical ExecOrder and
// the localized maps.
func (b *builder) number(rank int) *Layout {
	depth := b.depth
	l := &Layout{
		Rank: rank, NParts: b.nparts, Depth: depth, MaxChainLen: b.maxChainLen,
		Sets: make([]*SetLayout, len(b.prog.Sets)),
		Maps: make([][]int32, len(b.prog.Maps)),
	}
	for s, set := range b.prog.Sets {
		own, level, g2l := b.ownedBy[s][rank], b.level[s], b.g2l[s]
		total := len(own)
		for d := 0; d < depth; d++ {
			total += len(b.exec[s][d]) + len(b.nonexec[s][d])
		}
		sl := &SetLayout{
			Name: set.Name, NOwned: len(own), L2G: make([]int32, total),
			corePrefix: make([]int32, b.maxChainLen),
			ExecStart:  make([]int32, depth+1), NonexecStart: make([]int32, depth+1),
			ImportExec: make([][]ImportRange, depth), ImportNonexec: make([][]ImportRange, depth),
			ExportExec: make([][]ExportList, depth), ExportNonexec: make([][]ExportList, depth),
		}
		// Owned: stable counting sort of the ascending owned list by
		// decreasing level. start[v] counts the elements of level > v.
		start := b.levelStart
		clear(start)
		for _, e := range own {
			if level[e] == 0 {
				level[e] = b.maxLevel
			}
			start[level[e]-1]++
		}
		for v := len(start) - 1; v > 0; v-- {
			start[v-1] += start[v]
		}
		for loop := range sl.corePrefix {
			sl.corePrefix[loop] = start[2*(loop+1)-1]
		}
		for _, e := range own {
			loc := start[level[e]]
			start[level[e]]++
			sl.L2G[loc], g2l[e], b.ownerLocal[s][e] = e, loc, loc
		}
		at := int32(len(own))
		sl.ExecStart[0] = at
		for d := 0; d < depth; d++ {
			sl.ImportExec[d], at = b.appendShell(sl, s, b.exec[s][d], at)
			sl.ExecStart[d+1] = at
		}
		sl.NonexecStart[0] = at
		for d := 0; d < depth; d++ {
			sl.ImportNonexec[d], at = b.appendShell(sl, s, b.nonexec[s][d], at)
			sl.NonexecStart[d+1] = at
		}
		sl.ExecOrder = b.execOrder(own, b.exec[s], g2l)
		l.Sets[s] = sl
	}

	// Localized maps: rows for the executable region, -1 elsewhere.
	for mi, m := range b.prog.Maps {
		from, g2l := l.Sets[m.From.ID], b.g2l[m.To.ID]
		vals := make([]int32, from.Total()*m.Arity)
		n := 0
		for _, g := range from.L2G[:from.ExecEnd(depth)] {
			for _, tg := range m.Targets(int(g)) {
				vals[n] = g2l[tg]
				n++
			}
		}
		for i := n; i < len(vals); i++ {
			vals[i] = -1
		}
		l.Maps[mi] = vals
	}
	return l
}

// execOrder lists the local indices of the executable region by ascending
// global id: a merge of the owned list and the execute shells, each ascending
// already. The owned run is copied in a tight loop between halo elements, so
// the cost is its length plus (halo elements x shells).
func (b *builder) execOrder(own []int32, shells [][]int32, g2l []int32) []int32 {
	n := len(own)
	for _, sh := range shells {
		n += len(sh)
	}
	order := make([]int32, 0, n)
	heads := b.heads[:len(shells)]
	clear(heads)
	for {
		// The smallest global not yet merged among the shells.
		best, halo := -1, int32(math.MaxInt32)
		for k, sh := range shells {
			if h := heads[k]; h < len(sh) && sh[h] <= halo {
				best, halo = k, sh[h]
			}
		}
		i := 0
		for ; i < len(own) && own[i] < halo; i++ {
			order = append(order, g2l[own[i]])
		}
		own = own[i:]
		if best < 0 {
			return order
		}
		order = append(order, g2l[halo])
		heads[best]++
	}
}

// appendShell numbers one shell of set s from local index at: the globals
// are sorted once, then bucketed stably by owner (a counting sort over the
// shell's distinct owners), so every owner's run is contiguous and ascending.
// els is left sorted ascending for the ExecOrder merge.
func (b *builder) appendShell(sl *SetLayout, s int, els []int32, at int32) ([]ImportRange, int32) {
	slices.Sort(els)
	owner, g2l := b.owners[s], b.g2l[s]
	b.ranks = b.ranks[:0]
	for _, e := range els {
		if b.perRank[owner[e]] == 0 {
			b.ranks = append(b.ranks, owner[e])
		}
		b.perRank[owner[e]]++
	}
	slices.Sort(b.ranks)
	ranges := make([]ImportRange, len(b.ranks))
	for i, r := range b.ranks {
		ranges[i] = ImportRange{Rank: r, Start: at, Count: b.perRank[r]}
		b.perRank[r] = at // now the owner's cursor
		at += ranges[i].Count
	}
	for _, e := range els {
		loc := b.perRank[owner[e]]
		b.perRank[owner[e]]++
		sl.L2G[loc], g2l[e] = e, loc
	}
	for _, r := range b.ranks {
		b.perRank[r] = 0
	}
	return ranges, at
}

// reset restores the per-rank scratch l's passes marked.
func (b *builder) reset(l *Layout) {
	for s, sl := range l.Sets {
		status, level, g2l := b.status[s], b.level[s], b.g2l[s]
		for _, g := range sl.L2G {
			status[g], level[g], g2l[g] = 0, 0, -1
		}
	}
}

// fillExports derives each rank's export lists from every other rank's
// import ranges, preserving the importer's storage order, and the neighbour
// lists from both. Importers are visited in rank order and import at most
// one range per (shell, owner), so every export list comes out sorted by
// destination rank.
func fillExports(layouts []*Layout, ownerLocal [][]int32) {
	for _, l := range layouts {
		for s, sl := range l.Sets {
			// One slab per importing (rank, set): every halo element is
			// exported by exactly one owner.
			locals := make([]int32, sl.Total()-sl.NOwned)
			for i, g := range sl.L2G[sl.NOwned:] {
				if locals[i] = ownerLocal[s][g]; locals[i] < 0 {
					panic(fmt.Sprintf("halo: rank %d imports %s element %d, which no rank owns", l.Rank, sl.Name, g))
				}
			}
			export := func(r ImportRange, to *[]ExportList) {
				*to = append(*to, ExportList{Rank: int32(l.Rank), Locals: locals[r.Start-int32(sl.NOwned):][:r.Count:r.Count]})
				src := layouts[r.Rank]
				l.Neighbours, src.Neighbours = append(l.Neighbours, r.Rank), append(src.Neighbours, int32(l.Rank))
			}
			for d := 0; d < l.Depth; d++ {
				for _, r := range sl.ImportExec[d] {
					export(r, &layouts[r.Rank].Sets[s].ExportExec[d])
				}
				for _, r := range sl.ImportNonexec[d] {
					export(r, &layouts[r.Rank].Sets[s].ExportNonexec[d])
				}
			}
		}
	}
	for _, l := range layouts {
		slices.Sort(l.Neighbours)
		l.Neighbours = slices.Clone(slices.Compact(l.Neighbours))
	}
}
