package partition

// Multilevel k-way partitioning in the METIS style: coarsen the graph by
// heavy-edge matching until it is small, partition the coarsest graph with
// greedy growing, then project the assignment back up, refining with
// weighted FM passes at every level. This is the ParMETIS-k-way stand-in
// the paper's MG-CFD experiments rely on.
//
// Every step is deterministic: every CSR row is emitted in ascending
// neighbour order (rowMerger), so the same graph always yields the same
// assignment. Downstream consumers (halo construction, the virtual-time
// simulator, the tracer) rely on this for reproducible runs.

import "slices"

// wgraph is a weighted graph in CSR form.
type wgraph struct {
	xadj   []int32 // len nv+1
	adjncy []int32
	adjwgt []int32
	vwgt   []int32 // vertex weights (fine-vertex counts)
}

func (g *wgraph) nv() int { return len(g.vwgt) }

// rowMerger accumulates the weighted neighbours of one vertex at a time in
// arrays indexed by vertex id: wsum[u] is live while stamp[u] names the
// current row, so starting the next row clears nothing.
type rowMerger struct {
	stamp []int32 // row+1 of the last row that touched u; 0 = never
	wsum  []int32
	tos   []int32 // distinct neighbours of the current row, in first-seen order
}

func newRowMerger(n int) *rowMerger {
	return &rowMerger{stamp: make([]int32, n), wsum: make([]int32, n)}
}

func (m *rowMerger) add(row, to, w int32) {
	if m.stamp[to] != row+1 {
		m.stamp[to], m.wsum[to] = row+1, 0
		m.tos = append(m.tos, to)
	}
	m.wsum[to] += w
}

// emit appends the current row to g in ascending neighbour order — the
// canonical order every later tie-break (matching, refinement) depends on —
// and closes it.
func (m *rowMerger) emit(g *wgraph, row int) {
	slices.Sort(m.tos)
	for _, to := range m.tos {
		g.adjncy = append(g.adjncy, to)
		g.adjwgt = append(g.adjwgt, m.wsum[to])
	}
	g.xadj[row+1] = int32(len(g.adjncy))
	m.tos = m.tos[:0]
}

// toCSR converts adjacency lists (possibly with duplicate entries) to a
// unit-weight CSR graph, merging duplicates into edge weights and dropping
// self-loops.
func toCSR(adj [][]int32) *wgraph {
	n, nent := len(adj), 0
	for _, row := range adj {
		nent += len(row)
	}
	g := &wgraph{
		xadj: make([]int32, n+1), vwgt: make([]int32, n),
		adjncy: make([]int32, 0, nent), adjwgt: make([]int32, 0, nent),
	}
	m := newRowMerger(n)
	for v, row := range adj {
		g.vwgt[v] = 1
		for _, w := range row {
			if w != int32(v) {
				m.add(int32(v), w, 1)
			}
		}
		m.emit(g, v)
	}
	return g
}

// matchHeavyEdge computes a maximal matching preferring heavy edges,
// returning the coarse vertex id of every fine vertex and the coarse count.
func matchHeavyEdge(g *wgraph) ([]int32, int) {
	n := g.nv()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	cmap := make([]int32, n)
	nc := int32(0)
	for v := 0; v < n; v++ {
		if match[v] != -1 {
			continue
		}
		best := int32(-1)
		bestW := int32(-1)
		for e := g.xadj[v]; e < g.xadj[v+1]; e++ {
			u := g.adjncy[e]
			if match[u] == -1 && g.adjwgt[e] > bestW {
				best, bestW = u, g.adjwgt[e]
			}
		}
		if best == -1 {
			match[v] = int32(v)
			cmap[v] = nc
		} else {
			match[v] = best
			match[best] = int32(v)
			cmap[v] = nc
			cmap[best] = nc
		}
		nc++
	}
	return cmap, int(nc)
}

// coarsen builds the coarse graph induced by cmap.
func coarsen(g *wgraph, cmap []int32, nc int) *wgraph {
	c := &wgraph{
		xadj: make([]int32, nc+1), vwgt: make([]int32, nc),
		adjncy: make([]int32, 0, len(g.adjncy)), adjwgt: make([]int32, 0, len(g.adjncy)),
	}
	// Fine members of every coarse vertex, laid out by one counting pass.
	first := make([]int32, nc+1)
	for _, cv := range cmap {
		first[cv+1]++
	}
	for cv := 0; cv < nc; cv++ {
		first[cv+1] += first[cv]
	}
	members := make([]int32, len(cmap))
	fill := slices.Clone(first[:nc])
	for v, cv := range cmap {
		c.vwgt[cv] += g.vwgt[v]
		members[fill[cv]] = int32(v)
		fill[cv]++
	}
	m := newRowMerger(nc)
	for cv := 0; cv < nc; cv++ {
		for _, v := range members[first[cv]:first[cv+1]] {
			for e := g.xadj[v]; e < g.xadj[v+1]; e++ {
				if cu := cmap[g.adjncy[e]]; cu != int32(cv) {
					m.add(int32(cv), cu, g.adjwgt[e])
				}
			}
		}
		m.emit(c, cv)
	}
	return c
}

// cutWeight returns the weighted edge cut of an assignment.
func cutWeight(g *wgraph, a Assignment) int64 {
	var cut int64
	for v := 0; v < g.nv(); v++ {
		for e := g.xadj[v]; e < g.xadj[v+1]; e++ {
			if a[v] != a[g.adjncy[e]] {
				cut += int64(g.adjwgt[e])
			}
		}
	}
	return cut / 2
}

// growWeightedBest partitions the (small) coarsest graph several times from
// different seed vertices and keeps the best score: weighted cut plus a
// stiff penalty for imbalance (an imbalanced coarse partition is expensive
// to drain during uncoarsening).
func growWeightedBest(g *wgraph, nparts int) Assignment {
	var best Assignment
	var bestScore int64
	n := g.nv()
	totalW := int64(0)
	for _, w := range g.vwgt {
		totalW += int64(w)
	}
	target := (totalW + int64(nparts) - 1) / int64(nparts)
	for attempt := 0; attempt < 4; attempt++ {
		a := growWeighted(g, nparts, (attempt*n)/4)
		weights := make([]int64, nparts)
		for v, p := range a {
			weights[p] += int64(g.vwgt[v])
		}
		var over int64
		for _, w := range weights {
			if w > target {
				over += w - target
			}
		}
		score := cutWeight(g, a) + 8*over
		if best == nil || score < bestScore {
			best, bestScore = a, score
		}
	}
	return best
}

// growWeighted partitions a weighted graph by multi-seed frontier growth,
// with seed spreading started from the given vertex.
func growWeighted(g *wgraph, nparts, seedStart int) Assignment {
	n := g.nv()
	a := make(Assignment, n)
	for i := range a {
		a[i] = -1
	}
	totalW := int32(0)
	for _, w := range g.vwgt {
		totalW += w
	}
	target := (totalW + int32(nparts) - 1) / int32(nparts)

	adj := make([][]int32, n)
	for v := 0; v < n; v++ {
		adj[v] = g.adjncy[g.xadj[v]:g.xadj[v+1]]
	}
	seeds := spreadSeedsFrom(adj, nparts, int32(seedStart%n))
	weights := make([]int32, nparts)
	frontiers := make([][]int32, nparts)
	for p, s := range seeds {
		if a[s] != -1 {
			continue // duplicate seed on tiny graphs
		}
		a[s] = int32(p)
		weights[p] = g.vwgt[s]
		frontiers[p] = append(frontiers[p], s)
	}
	for active := nparts; active > 0; {
		active = 0
		for p := 0; p < nparts; p++ {
			if weights[p] >= target || len(frontiers[p]) == 0 {
				continue
			}
			var next []int32
			for _, v := range frontiers[p] {
				for _, w := range adj[v] {
					if a[w] == -1 && weights[p] < target {
						a[w] = int32(p)
						weights[p] += g.vwgt[w]
						next = append(next, w)
					}
				}
				if weights[p] >= target {
					break
				}
			}
			frontiers[p] = next
			if weights[p] < target && len(next) > 0 {
				active++
			}
		}
	}
	for v := range a {
		if a[v] != -1 {
			continue
		}
		best := -1
		for _, w := range adj[v] {
			if a[w] >= 0 && (best == -1 || weights[a[w]] < weights[best]) {
				best = int(a[w])
			}
		}
		if best == -1 {
			best = 0
			for p := 1; p < nparts; p++ {
				if weights[p] < weights[best] {
					best = p
				}
			}
		}
		a[v] = int32(best)
		weights[best] += g.vwgt[v]
	}
	refineWeighted(g, a, weights, target, 4)
	return a
}

// refineWeighted runs FM-style passes on a weighted graph: move boundary
// vertices to the neighbouring part with the highest edge-weight gain,
// subject to a balance cap. Vertices in overweight parts may move at a
// loss, draining the part toward balance.
func refineWeighted(g *wgraph, a Assignment, weights []int32, target int32, passes int) {
	nparts := len(weights)
	maxW := target + target/20 + 1
	// conn[p] is v's edge weight into part p; only the few parts in touch —
	// v's neighbours' — are non-zero, visited (in ascending order, which the
	// tie-breaks below depend on) and cleared, so a vertex costs its degree,
	// not the part count.
	conn := make([]int64, nparts)
	var touch []int32
	for pass := 0; pass < passes; pass++ {
		moved := 0
		for v := 0; v < g.nv(); v++ {
			if g.xadj[v] == g.xadj[v+1] {
				continue
			}
			own := a[v]
			if weights[own] <= g.vwgt[v] {
				continue
			}
			for _, p := range touch {
				conn[p] = 0
			}
			touch = touch[:0]
			for e := g.xadj[v]; e < g.xadj[v+1]; e++ {
				p := a[g.adjncy[e]]
				if conn[p] == 0 {
					touch = append(touch, p)
				}
				conn[p] += int64(g.adjwgt[e])
			}
			slices.Sort(touch)
			overweight := weights[own] > maxW
			best := own
			bestGain := int64(0)
			haveBest := false
			for _, p := range touch {
				if p == own {
					continue
				}
				gain := conn[p] - conn[own]
				switch {
				case overweight && weights[p] < weights[own] && weights[p]+g.vwgt[v] <= maxW:
					// Balance move: accept the least-bad lighter
					// neighbouring part, even at a loss.
					if !haveBest || gain > bestGain ||
						(gain == bestGain && weights[p] < weights[best]) {
						best, bestGain, haveBest = p, gain, true
					}
				case !overweight && weights[p]+g.vwgt[v] <= maxW:
					if gain > bestGain ||
						(gain == bestGain && gain > 0 && weights[p] < weights[best]) ||
						(gain == 0 && bestGain == 0 && weights[p]+g.vwgt[v] < weights[own]) {
						best, bestGain, haveBest = p, gain, true
					}
				}
			}
			if haveBest && best != own {
				weights[own] -= g.vwgt[v]
				weights[best] += g.vwgt[v]
				a[v] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

// multilevelKWay is the full pipeline. The graph must have at least nparts
// vertices.
func multilevelKWay(adj [][]int32, nparts int) Assignment {
	g := toCSR(adj)
	var levels []*wgraph
	var cmaps [][]int32
	levels = append(levels, g)
	coarsestTarget := max(128, 8*nparts)
	for levels[len(levels)-1].nv() > coarsestTarget {
		cur := levels[len(levels)-1]
		cmap, nc := matchHeavyEdge(cur)
		if nc >= cur.nv()*95/100 {
			break // matching stalled (star graphs etc.)
		}
		cmaps = append(cmaps, cmap)
		levels = append(levels, coarsen(cur, cmap, nc))
	}

	a := growWeightedBest(levels[len(levels)-1], nparts)
	// Project back up, refining at each level.
	for li := len(levels) - 2; li >= 0; li-- {
		cmap := cmaps[li]
		fine := levels[li]
		fa := make(Assignment, fine.nv())
		for v := range fa {
			fa[v] = a[cmap[v]]
		}
		weights := make([]int32, nparts)
		totalW := int32(0)
		for v := 0; v < fine.nv(); v++ {
			weights[fa[v]] += fine.vwgt[v]
			totalW += fine.vwgt[v]
		}
		target := (totalW + int32(nparts) - 1) / int32(nparts)
		refineWeighted(fine, fa, weights, target, 6)
		a = fa
	}
	// Guarantee no empty part (possible on degenerate coarse graphs):
	// steal the lightest boundary vertex repeatedly.
	fixEmptyParts(g, a, nparts)
	return a
}

func fixEmptyParts(g *wgraph, a Assignment, nparts int) {
	sizes := make([]int, nparts)
	for _, p := range a {
		sizes[p]++
	}
	for p := 0; p < nparts; p++ {
		for sizes[p] == 0 {
			// Take a vertex from the largest part.
			big := 0
			for q := 1; q < nparts; q++ {
				if sizes[q] > sizes[big] {
					big = q
				}
			}
			for v := range a {
				if int(a[v]) == big {
					a[v] = int32(p)
					sizes[big]--
					sizes[p]++
					break
				}
			}
		}
	}
}
