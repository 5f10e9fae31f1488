package halo

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"op2ca/internal/core"
	"op2ca/internal/reuse"
)

// selem addresses one element of one set during mixed-set graph traversals.
type selem struct {
	set  int32
	elem int32
}

// Build constructs the per-rank local layouts of prog for the given
// per-set ownership (from DeriveOwnership), with halo shells of the given
// depth and core prefixes supporting chains of up to maxChainLen loops, in
// arrays made for them. The package comment describes the passes and their
// cost.
func Build(prog *core.Program, owners [][]int32, nparts, depth, maxChainLen int) []*Layout {
	return getBuilder().build(made{}, prog, owners, nparts, depth, maxChainLen)
}

// Storage is where BuildIn takes the flat arrays a build's layouts are
// carved from. Each call returns n elements whose content is unspecified:
// the build writes every element it reads. A build asks for one []int32
// slab per rank and, once every rank is numbered, one []Range and one
// []int32 slab for all ranks' import and export lists; nothing else in the
// layouts is an array.
type Storage interface {
	Int32s(n int) []int32
	Ranges(n int) []Range
}

// made is Build's Storage: fresh arrays.
type made struct{}

func (made) Int32s(n int) []int32 { return make([]int32, n) }
func (made) Ranges(n int) []Range { return make([]Range, n) }

// BuildIn is Build on the ownership DeriveOwnership derives from the primary
// set's assignment, with the layouts' arrays taken from st, so a caller that
// builds layout after layout can lend them the storage of ones it is done
// with. The ownership is derived into the build's pooled scratch: the
// per-set owner arrays are not made again for every build.
func BuildIn(st Storage, prog *core.Program, primary *core.Set, assign []int32, nparts, depth, maxChainLen int) ([]*Layout, error) {
	b := getBuilder()
	owners, err := b.derived.derive(prog, primary, assign)
	if err != nil {
		b.release()
		return nil, err
	}
	return b.build(st, prog, owners, nparts, depth, maxChainLen), nil
}

// build builds the layouts in b, which it puts back in the pool.
func (b *builder) build(st Storage, prog *core.Program, owners [][]int32, nparts, depth, maxChainLen int) []*Layout {
	if depth < 1 {
		panic(fmt.Sprintf("halo: depth %d < 1", depth))
	}
	if maxChainLen < 1 {
		panic(fmt.Sprintf("halo: maxChainLen %d < 1", maxChainLen))
	}
	if len(owners) != len(prog.Sets) {
		panic(fmt.Sprintf("halo: ownership for %d sets, program has %d", len(owners), len(prog.Sets)))
	}
	b.setUp(prog, owners, nparts, depth, maxChainLen)
	b.st = st
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
	b.imports, b.importAt = b.imports[:0], append(b.importAt[:0], 0)
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
	derived                    derivation // BuildIn's ownership
	st                         Storage
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

	// Every rank's import ranges, kept for fillExports: cell c's — rank,
	// set, kind, shell; see fillExports — are imports[importAt[c]:importAt[c+1]].
	imports  []Range
	importAt []int32
	// fillExports' count, then cursor, of the export lists and of their
	// elements, per cell.
	lists, listed []int32
}

// cut returns the next n elements of *slab, its capacity ending with them,
// and moves *slab past them.
func cut[T any](slab *[]T, n int) []T {
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// getBuilder takes a builder from the pool, or makes one.
func getBuilder() *builder {
	b, _ := builders.Get().(*builder)
	if b == nil {
		b = new(builder)
	}
	return b
}

// setUp readies b for one call: the dense arrays, the reverse maps, the
// ownership buckets and the boundary marks.
func (b *builder) setUp(prog *core.Program, owners [][]int32, nparts, depth, maxChainLen int) {
	nsets := len(prog.Sets)
	b.prog, b.owners, b.nparts, b.depth, b.maxChainLen = prog, owners, nparts, depth, maxChainLen
	b.maxLevel = int32(2*maxChainLen + 2)
	b.levelStart = reuse.Resize(b.levelStart, 2*maxChainLen+3)
	b.perRank = reuse.Filled(b.perRank, nparts, 0)
	b.heads = reuse.Resize(b.heads, depth)
	b.rev = reuse.Resize(b.rev, len(prog.Maps))
	b.mapsFrom, b.mapsTo = reuse.Resize(b.mapsFrom, nsets), reuse.Resize(b.mapsTo, nsets)
	b.owned, b.ownedBy, b.exec, b.nonexec = reuse.Resize(b.owned, nsets), reuse.Resize(b.ownedBy, nsets), reuse.Resize(b.exec, nsets), reuse.Resize(b.nonexec, nsets)
	b.boundary, b.status, b.level = reuse.Resize(b.boundary, nsets), reuse.Resize(b.status, nsets), reuse.Resize(b.level, nsets)
	b.g2l, b.ownerLocal = reuse.Resize(b.g2l, nsets), reuse.Resize(b.ownerLocal, nsets)
	for s, set := range prog.Sets {
		b.mapsFrom[s], b.mapsTo[s] = b.mapsFrom[s][:0], b.mapsTo[s][:0]
		b.boundary[s] = reuse.Filled(b.boundary[s], set.Size, false)
		b.status[s] = reuse.Filled(b.status[s], set.Size, 0)
		b.level[s] = reuse.Filled(b.level[s], set.Size, 0)
		b.g2l[s] = reuse.Filled(b.g2l[s], set.Size, -1)
		b.ownerLocal[s] = reuse.Filled(b.ownerLocal[s], set.Size, -1)
		b.exec[s], b.nonexec[s] = reuse.Resize(b.exec[s], depth), reuse.Resize(b.nonexec[s], depth)

		// Ownership buckets: one counting pass (perRank counts, cleared
		// after), one fill of the set's slab.
		slab, count := reuse.Resize(b.owned[s], set.Size), b.perRank
		for _, r := range owners[s] {
			count[r]++
		}
		b.owned[s], b.ownedBy[s] = slab, reuse.Resize(b.ownedBy[s], nparts)
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
		b.rev[i] = buildReverse(m, reuse.Resize(b.rev[i].offsets, m.To.Size+1), reuse.Resize(b.rev[i].sources, len(m.Values)))
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
}

// release lets go of what the call was given — the program, through its
// maps, and the ownership — and puts the scratch back in the pool.
func (b *builder) release() {
	b.prog, b.owners, b.st = nil, nil, nil
	clear(b.derived.owners)
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

// sizes returns the local size of set s on rank and the end of its
// executable region, from the shells just grown.
func (b *builder) sizes(s, rank int) (total, execEnd int) {
	execEnd = len(b.ownedBy[s][rank])
	for _, sh := range b.exec[s] {
		execEnd += len(sh)
	}
	total = execEnd
	for _, sh := range b.nonexec[s] {
		total += len(sh)
	}
	return total, execEnd
}

// number assigns rank's local numbering — owned elements by decreasing
// interior level then ascending global id, then each shell grouped by owner
// and ascending within an owner — and from it the canonical ExecOrder and
// the localized maps, all in one slab from the Storage. The rank's import
// ranges go to b.imports.
func (b *builder) number(rank int) *Layout {
	depth := b.depth
	l := &Layout{
		Rank: rank, NParts: b.nparts, Depth: depth, MaxChainLen: b.maxChainLen,
		Sets: make([]SetLayout, len(b.prog.Sets)),
	}
	n := len(b.prog.Maps) + 1
	for s := range b.prog.Sets {
		total, execEnd := b.sizes(s, rank)
		n += total + execEnd + 2*(depth+1) + b.maxChainLen
	}
	for _, m := range b.prog.Maps {
		total, _ := b.sizes(m.From.ID, rank)
		n += total * m.Arity
	}
	slab := b.st.Int32s(n)
	for s, set := range b.prog.Sets {
		own, level, g2l := b.ownedBy[s][rank], b.level[s], b.g2l[s]
		total, execEnd := b.sizes(s, rank)
		sl := &l.Sets[s]
		sl.Name, sl.NOwned = set.Name, len(own)
		sl.l2g, sl.execOrder = cut(&slab, total), cut(&slab, execEnd)
		sl.execStart, sl.nonexecStart = cut(&slab, depth+1), cut(&slab, depth+1)
		sl.corePrefix = cut(&slab, b.maxChainLen)
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
			sl.l2g[loc], g2l[e], b.ownerLocal[s][e] = e, loc, loc
		}
		at := int32(len(own))
		sl.execStart[0] = at
		for d := 0; d < depth; d++ {
			at = b.appendShell(sl, s, b.exec[s][d], at)
			sl.execStart[d+1] = at
		}
		sl.nonexecStart[0] = at
		for d := 0; d < depth; d++ {
			at = b.appendShell(sl, s, b.nonexec[s][d], at)
			sl.nonexecStart[d+1] = at
		}
		b.execOrder(sl.execOrder[:0], own, b.exec[s], g2l)
	}

	// Localized maps: rows for the executable region, -1 elsewhere.
	l.mapAt = cut(&slab, len(b.prog.Maps)+1)
	l.maps = slab
	at := 0
	for mi, m := range b.prog.Maps {
		from, g2l := &l.Sets[m.From.ID], b.g2l[m.To.ID]
		vals := l.maps[at : at+from.Total()*m.Arity]
		l.mapAt[mi], at = int32(at), at+len(vals)
		n := 0
		for _, g := range from.l2g[:from.ExecEnd(depth)] {
			for _, tg := range m.Targets(int(g)) {
				vals[n] = g2l[tg]
				n++
			}
		}
		for i := n; i < len(vals); i++ {
			vals[i] = -1
		}
	}
	l.mapAt[len(b.prog.Maps)] = int32(at)
	return l
}

// execOrder lists the local indices of the executable region by ascending
// global id: a merge of the owned list and the execute shells, each ascending
// already. The owned run is copied in a tight loop between halo elements, so
// the cost is its length plus (halo elements x shells). order has the
// capacity for all of them.
func (b *builder) execOrder(order, own []int32, shells [][]int32, g2l []int32) {
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
			return
		}
		order = append(order, g2l[halo])
		heads[best]++
	}
}

// appendShell numbers one shell of set s from local index at: the globals
// are sorted once, then bucketed stably by owner (a counting sort over the
// shell's distinct owners), so every owner's run is contiguous and ascending.
// The shell's import ranges go to b.imports, and els is left sorted
// ascending for the ExecOrder merge.
func (b *builder) appendShell(sl *SetLayout, s int, els []int32, at int32) int32 {
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
	for _, r := range b.ranks {
		b.imports = append(b.imports, Range{Rank: r, Start: at, Count: b.perRank[r]})
		b.perRank[r] = at // now the owner's cursor
		at += b.imports[len(b.imports)-1].Count
	}
	b.importAt = append(b.importAt, int32(len(b.imports)))
	for _, e := range els {
		loc := b.perRank[owner[e]]
		b.perRank[owner[e]]++
		sl.l2g[loc], g2l[e] = e, loc
	}
	for _, r := range b.ranks {
		b.perRank[r] = 0
	}
	return at
}

// reset restores the per-rank scratch l's passes marked.
func (b *builder) reset(l *Layout) {
	for s := range l.Sets {
		status, level, g2l := b.status[s], b.level[s], b.g2l[s]
		for _, g := range l.Sets[s].l2g {
			status[g], level[g], g2l[g] = 0, 0, -1
		}
	}
}

// fillExports derives each rank's export lists from every other rank's
// import ranges, preserving the importer's storage order, and the neighbour
// lists from both. A cell is one (rank, set, kind, shell), numbered in that
// order, as number filed the imports. Importers are visited in rank order and
// import at most one range per (shell, owner), so every export list comes out
// sorted by destination rank. The lists and their elements are counted
// first, so all ranks' come from two slabs of the exact size: one of ranges,
// one of int32s for the run offsets, the exported locals and the neighbours.
func (b *builder) fillExports(layouts []*Layout) {
	nsets, depth := len(b.prog.Sets), b.depth
	stride := nsets * 2 * depth // cells a rank
	imports := func(c int) []Range { return b.imports[b.importAt[c]:b.importAt[c+1]] }
	lists := reuse.Filled(b.lists, len(layouts)*stride, 0)
	listed := reuse.Filled(b.listed, len(layouts)*stride, 0)
	b.lists, b.listed = lists, listed
	nlocals := 0
	for c := range lists {
		for _, rg := range imports(c) {
			e := int(rg.Rank)*stride + c%stride // the owner's cell
			lists[e]++
			listed[e] += rg.Count
			nlocals += int(rg.Count)
		}
	}

	// Carve: per (rank, set), its imports then its export lists; per rank,
	// its exported locals. lists and listed become the cells' cursors.
	runs := b.st.Ranges(2 * len(b.imports))
	link := b.st.Int32s(len(layouts)*nsets*(4*depth+1) + nlocals + 2*len(b.imports))
	for r, l := range layouts {
		local := int32(0)
		for s := range l.Sets {
			sl, base := &l.Sets[s], r*stride+s*2*depth
			sl.runAt = cut(&link, 4*depth+1)
			n := int32(0)
			for i := 0; i < 2*depth; i++ {
				sl.runAt[i] = n
				n += b.importAt[base+i+1] - b.importAt[base+i]
			}
			for i := 0; i < 2*depth; i++ {
				c := base + i
				sl.runAt[2*depth+i] = n
				n, lists[c] = n+lists[c], n
				local, listed[c] = local+listed[c], local
			}
			sl.runAt[4*depth] = n
			sl.runs = cut(&runs, int(n))
			copy(sl.runs, b.imports[b.importAt[base]:b.importAt[base+2*depth]])
		}
		l.locals = cut(&link, int(local))
	}

	// Fill: every import range of importer i is one export list of its owner.
	for c := range lists {
		i, s := c/stride, c%stride/(2*depth)
		sl := &layouts[i].Sets[s]
		for _, rg := range imports(c) {
			e, owner := int(rg.Rank)*stride+c%stride, layouts[rg.Rank]
			owner.Sets[s].runs[lists[e]] = Range{Rank: int32(i), Start: listed[e], Count: rg.Count}
			dst := owner.locals[listed[e]:][:rg.Count]
			lists[e]++
			listed[e] += rg.Count
			for k, g := range sl.l2g[rg.Start:][:rg.Count] {
				if dst[k] = b.ownerLocal[s][g]; dst[k] < 0 {
					panic(fmt.Sprintf("halo: rank %d imports %s element %d, which no rank owns", i, sl.Name, g))
				}
			}
		}
	}

	// A rank's neighbours are the ranks its imports and export lists name,
	// each marked once in perRank; there are at most as many as runs.
	for _, l := range layouts {
		bound := 0
		for s := range l.Sets {
			bound += len(l.Sets[s].runs)
		}
		nb := cut(&link, bound)[:0]
		for s := range l.Sets {
			for _, rg := range l.Sets[s].runs {
				if b.perRank[rg.Rank] == 0 {
					b.perRank[rg.Rank] = 1
					nb = append(nb, rg.Rank)
				}
			}
		}
		slices.Sort(nb)
		for _, r := range nb {
			b.perRank[r] = 0
		}
		l.neighbours = nb[:len(nb):len(nb)]
	}
}
