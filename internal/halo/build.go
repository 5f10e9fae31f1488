package halo

import (
	"fmt"
	"math"
	"slices"
	"sync"

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
	layouts := b.layouts()
	b.fillExports(layouts)
	b.release()
	return layouts
}

// builders keeps the scratch of finished Builds for later ones, so a process
// that builds many layouts sizes its scratch once. A kept builder refers to
// nothing of the program it served, and two collections empty the pool, so
// an idle process holds none.
var builders sync.Pool // of *builder, no New: an empty pool hands over nil

// layouts is Build up to (not including) the export and neighbour lists.
func (b *builder) layouts() []*Layout {
	layouts := make([]*Layout, b.nparts)
	for rank := range layouts {
		nb := b.interiorLevels(rank)
		b.shells(nb)
		layouts[rank] = b.number(rank)
		b.reset(layouts[rank])
	}
	return layouts
}

// builder is the scratch of one Build call, taken from builders and put back
// when the call is done, so concurrent builds each hold their own. Everything
// indexed by global element id is re-initialised at the start of every call
// and, where it is per rank, restored by reset through the rank's own L2G;
// every list is truncated and refilled. An array is reallocated only for a
// set or map larger than any it has held, and no layout refers to any of it.
type builder struct {
	prog                       *core.Program
	owners                     [][]int32
	nparts, depth, maxChainLen int
	maxLevel                   int32 // levels are capped at 2*maxChainLen+1; deeper is maxLevel

	rev              []reverseMap
	mapsFrom, mapsTo [][]*core.Map // by set id
	owned            [][]int32     // [set]: ownedBy's slab
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
	exports               []int32     // fillExports' count of export lists per (rank, set, kind, shell)
}

// resize returns s with length n, keeping its elements and reallocating only
// when n exceeds its capacity.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// filled returns s with length n and every element v, reallocating only when
// n exceeds its capacity.
func filled[T any](s []T, n int, v T) []T {
	if n > cap(s) {
		s = make([]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// newBuilder takes a builder from the pool, or makes one, and sets it up for
// one call: the dense arrays, the reverse maps, the ownership buckets and the
// boundary marks.
func newBuilder(prog *core.Program, owners [][]int32, nparts, depth, maxChainLen int) *builder {
	b, _ := builders.Get().(*builder)
	if b == nil {
		b = new(builder)
	}
	nsets := len(prog.Sets)
	b.prog, b.owners, b.nparts, b.depth, b.maxChainLen = prog, owners, nparts, depth, maxChainLen
	b.maxLevel = int32(2*maxChainLen + 2)
	b.levelStart = resize(b.levelStart, 2*maxChainLen+3)
	b.perRank = filled(b.perRank, nparts, 0)
	b.heads = resize(b.heads, depth)
	b.rev = resize(b.rev, len(prog.Maps))
	b.mapsFrom, b.mapsTo = resize(b.mapsFrom, nsets), resize(b.mapsTo, nsets)
	b.owned, b.ownedBy, b.exec, b.nonexec = resize(b.owned, nsets), resize(b.ownedBy, nsets), resize(b.exec, nsets), resize(b.nonexec, nsets)
	b.boundary, b.status, b.level = resize(b.boundary, nsets), resize(b.status, nsets), resize(b.level, nsets)
	b.g2l, b.ownerLocal = resize(b.g2l, nsets), resize(b.ownerLocal, nsets)
	for s, set := range prog.Sets {
		b.mapsFrom[s], b.mapsTo[s] = b.mapsFrom[s][:0], b.mapsTo[s][:0]
		b.boundary[s] = filled(b.boundary[s], set.Size, false)
		b.status[s] = filled(b.status[s], set.Size, 0)
		b.level[s] = filled(b.level[s], set.Size, 0)
		b.g2l[s] = filled(b.g2l[s], set.Size, -1)
		b.ownerLocal[s] = filled(b.ownerLocal[s], set.Size, -1)
		b.exec[s], b.nonexec[s] = resize(b.exec[s], depth), resize(b.nonexec[s], depth)

		// Ownership buckets: one counting pass (perRank counts, cleared
		// after), one fill of the set's slab.
		slab, count := resize(b.owned[s], set.Size), b.perRank
		for _, r := range owners[s] {
			count[r]++
		}
		b.owned[s], b.ownedBy[s] = slab, resize(b.ownedBy[s], nparts)
		lo := int32(0)
		for r, n := range count {
			b.ownedBy[s][r] = slab[lo : lo : lo+n]
			lo += n
		}
		for g, r := range owners[s] {
			b.ownedBy[s][r] = append(b.ownedBy[s][r], int32(g))
		}
		clear(count)
	}
	for i, m := range prog.Maps {
		b.rev[i] = buildReverse(m, resize(b.rev[i].offsets, m.To.Size+1), resize(b.rev[i].sources, len(m.Values)))
		b.mapsFrom[m.From.ID] = append(b.mapsFrom[m.From.ID], m)
		b.mapsTo[m.To.ID] = append(b.mapsTo[m.To.ID], m)
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

// release lets go of what the call was given — the program, through its
// maps, and the ownership — and puts the scratch back in the pool.
func (b *builder) release() {
	b.prog, b.owners = nil, nil
	for s := range b.mapsFrom {
		clear(b.mapsFrom[s])
		clear(b.mapsTo[s])
	}
	builders.Put(b)
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
// destination rank. The lists are counted first, so each rank's come from
// one array of the exact size.
func (b *builder) fillExports(layouts []*Layout) {
	nsets, depth := len(b.prog.Sets), b.depth
	// cell is where the export lists rank r sends of set s, halo kind (0
	// execute, 1 non-execute) and shell d are counted.
	cell := func(r int32, s, kind, d int) int { return ((int(r)*nsets+s)*2+kind)*depth + d }
	count := resize(b.exports, len(layouts)*nsets*2*depth)
	b.exports = count
	clear(count)
	for _, l := range layouts {
		for s, sl := range l.Sets {
			for d := 0; d < depth; d++ {
				for _, r := range sl.ImportExec[d] {
					count[cell(r.Rank, s, 0, d)]++
				}
				for _, r := range sl.ImportNonexec[d] {
					count[cell(r.Rank, s, 1, d)]++
				}
			}
		}
	}
	for r, l := range layouts {
		total := int32(0)
		for _, n := range count[cell(int32(r), 0, 0, 0):cell(int32(r+1), 0, 0, 0)] {
			total += n
		}
		if total == 0 {
			continue
		}
		lists, at := make([]ExportList, total), int32(0)
		for s, sl := range l.Sets {
			for d := 0; d < depth; d++ {
				for kind, to := range [2][][]ExportList{sl.ExportExec, sl.ExportNonexec} {
					if n := count[cell(int32(r), s, kind, d)]; n > 0 {
						to[d], at = lists[at:at:at+n], at+n
					}
				}
			}
		}
	}
	for _, l := range layouts {
		for s, sl := range l.Sets {
			// One slab per importing (rank, set): every halo element is
			// exported by exactly one owner.
			locals := make([]int32, sl.Total()-sl.NOwned)
			for i, g := range sl.L2G[sl.NOwned:] {
				if locals[i] = b.ownerLocal[s][g]; locals[i] < 0 {
					panic(fmt.Sprintf("halo: rank %d imports %s element %d, which no rank owns", l.Rank, sl.Name, g))
				}
			}
			export := func(r ImportRange, to *[]ExportList) {
				*to = append(*to, ExportList{Rank: int32(l.Rank), Locals: locals[r.Start-int32(sl.NOwned):][:r.Count:r.Count]})
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
	// A rank's neighbours are the owners it imports from and the ranks its
	// export lists go to, each marked once in perRank.
	for _, l := range layouts {
		b.ranks = b.ranks[:0]
		mark := func(r int32) {
			if b.perRank[r] == 0 {
				b.perRank[r] = 1
				b.ranks = append(b.ranks, r)
			}
		}
		for _, sl := range l.Sets {
			for d := 0; d < depth; d++ {
				for _, r := range sl.ImportExec[d] {
					mark(r.Rank)
				}
				for _, r := range sl.ImportNonexec[d] {
					mark(r.Rank)
				}
				for _, ex := range sl.ExportExec[d] {
					mark(ex.Rank)
				}
				for _, ex := range sl.ExportNonexec[d] {
					mark(ex.Rank)
				}
			}
		}
		if len(b.ranks) > 0 {
			slices.Sort(b.ranks)
			l.Neighbours = slices.Clone(b.ranks)
		}
		for _, r := range b.ranks {
			b.perRank[r] = 0
		}
	}
}
