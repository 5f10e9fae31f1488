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

import (
	"math"
	"slices"

	"op2ca/internal/reuse"
)

// wgraph is a weighted graph in CSR form.
type wgraph struct {
	csr
	adjwgt []int32
	vwgt   []int32 // vertex weights (fine-vertex counts)
}

// rowMerger accumulates the weighted neighbours of one vertex at a time in
// arrays indexed by vertex id: wsum[u] is live while stamp[u] names the
// current row, so starting the next row clears nothing. One merger serves
// every graph a scratch merges: each graph's rows are stamped above every
// earlier graph's (base), so a stamp left by an earlier graph, of this call or
// another, is never taken for the current row's.
type rowMerger struct {
	stamp []int32 // base+row+1 of the last row that touched u; at most base before the current graph
	wsum  []int32
	tos   []int32 // distinct neighbours of the current row, in first-seen order
	base  int32   // rows of the graphs merged since the stamps were last cleared

	// The merged rows of the graph being built, before end copies them to
	// the graph at their exact size.
	to, wt []int32
}

// begin readies m for a graph of n vertices with at most nent entries.
func (m *rowMerger) begin(n, nent int) {
	if int64(m.base)+int64(n) >= math.MaxInt32 {
		clear(m.stamp[:cap(m.stamp)])
		m.base = 0
	}
	m.stamp, m.wsum = reuse.Resize(m.stamp, n), reuse.Resize(m.wsum, n)
	m.to, m.wt = reuse.Resize(m.to, nent)[:0], reuse.Resize(m.wt, nent)[:0]
}

func (m *rowMerger) add(row, to, w int32) {
	if st := m.base + row + 1; m.stamp[to] != st {
		m.stamp[to], m.wsum[to] = st, 0
		m.tos = append(m.tos, to)
	}
	m.wsum[to] += w
}

// emit appends the current row in ascending neighbour order — the canonical
// order every later tie-break (matching, refinement) depends on — closes it
// as g's row, and starts the next.
func (m *rowMerger) emit(g *wgraph, row int) {
	slices.Sort(m.tos)
	for _, to := range m.tos {
		m.to = append(m.to, to)
		m.wt = append(m.wt, m.wsum[to])
	}
	g.xadj[row+1] = int32(len(m.to))
	m.tos = m.tos[:0]
}

// end gives g the rows emitted, at their exact size, and moves the stamps'
// base past g's rows.
func (m *rowMerger) end(g *wgraph) {
	g.adjncy, g.adjwgt = reuse.Resize(g.adjncy, len(m.to)), reuse.Resize(g.adjwgt, len(m.wt))
	copy(g.adjncy, m.to)
	copy(g.adjwgt, m.wt)
	m.base += int32(g.nv())
}

// toCSR merges the loaded graph into g as a unit-weight CSR graph, merging
// duplicate entries into edge weights and dropping self-loops.
func (s *scratch) toCSR(g *wgraph) {
	in, m := &s.in, &s.merger
	n := in.nv()
	g.xadj, g.vwgt = reuse.Resize(g.xadj, n+1), reuse.Filled(g.vwgt, n, 1)
	g.xadj[0] = 0
	m.begin(n, len(in.adjncy))
	for v := range n {
		for _, w := range in.row(v) {
			if w != int32(v) {
				m.add(int32(v), w, 1)
			}
		}
		m.emit(g, v)
	}
	m.end(g)
}

// matchHeavyEdge computes a maximal matching of g preferring heavy edges,
// writing the coarse vertex id of every fine vertex to cmap (resized to g's
// vertex count) and returning it with the coarse count.
func (s *scratch) matchHeavyEdge(g *wgraph, cmap []int32) ([]int32, int) {
	n := g.nv()
	match := reuse.Filled(s.match, n, -1)
	s.match = match
	cmap = reuse.Resize(cmap, n)
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

// coarsen builds into c the coarse graph of g induced by cmap.
func (s *scratch) coarsen(g *wgraph, cmap []int32, nc int, c *wgraph) {
	c.xadj, c.vwgt = reuse.Resize(c.xadj, nc+1), reuse.Filled(c.vwgt, nc, 0)
	c.xadj[0] = 0
	// Fine members of every coarse vertex, laid out by one counting pass:
	// first[cv] is cv's fill cursor, and ends at cv+1's start, so it is
	// shifted back after.
	first, members := reuse.Filled(s.first, nc+1, 0), reuse.Resize(s.members, len(cmap))
	s.first, s.members = first, members
	for _, cv := range cmap {
		first[cv+1]++
	}
	for cv := 0; cv < nc; cv++ {
		first[cv+1] += first[cv]
	}
	for v, cv := range cmap {
		c.vwgt[cv] += g.vwgt[v]
		members[first[cv]] = int32(v)
		first[cv]++
	}
	copy(first[1:], first[:nc])
	first[0] = 0
	m := &s.merger
	m.begin(nc, len(g.adjncy))
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
	m.end(c)
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
// to drain during uncoarsening). The best is left in s.asg[0].
func (s *scratch) growWeightedBest(g *wgraph, nparts int) Assignment {
	var bestScore int64
	n := g.nv()
	totalW := int64(0)
	for _, w := range g.vwgt {
		totalW += int64(w)
	}
	target := (totalW + int64(nparts) - 1) / int64(nparts)
	weights := reuse.Resize(s.scores, nparts)
	s.scores = weights
	for attempt := 0; attempt < 4; attempt++ {
		a := s.growWeighted(g, nparts, (attempt*n)/4, s.asg[1], true)
		clear(weights)
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
		if attempt == 0 || score < bestScore {
			s.asg[0], s.asg[1], bestScore = a, s.asg[0], score
		} else {
			s.asg[1] = a
		}
	}
	return s.asg[0]
}

// growWeighted partitions a weighted graph by multi-seed frontier growth,
// with seed spreading started from the given vertex, into a (resized), then
// refines it, draining overweight parts if drain is set.
func (s *scratch) growWeighted(g *wgraph, nparts, seedStart int, a Assignment, drain bool) Assignment {
	n := g.nv()
	a = reuse.Filled(a, n, -1)
	totalW := int32(0)
	for _, w := range g.vwgt {
		totalW += w
	}
	target := (totalW + int32(nparts) - 1) / int32(nparts)

	seeds := s.spreadSeeds(&g.csr, nparts, int32(seedStart%n))
	weights := reuse.Filled(s.weights, nparts, 0)
	s.weights = weights
	frontiers := s.startFrontiers(nparts)
	for p, sd := range seeds {
		if a[sd] != -1 {
			continue // duplicate seed on tiny graphs
		}
		a[sd] = int32(p)
		weights[p] = g.vwgt[sd]
		frontiers[p] = append(frontiers[p], sd)
	}
	// Round-robin frontier growth: each part claims one layer step at a time
	// until it reaches its target weight or its frontier empties.
	for active := nparts; active > 0; {
		active = 0
		for p := 0; p < nparts; p++ {
			if weights[p] >= target || len(frontiers[p]) == 0 {
				continue
			}
			next := s.next[p][:0]
			for _, v := range frontiers[p] {
				for _, w := range g.row(int(v)) {
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
			frontiers[p], s.next[p] = next, frontiers[p]
			if weights[p] < target && len(next) > 0 {
				active++
			}
		}
	}
	// Unclaimed vertices (disconnected or squeezed out) join the lightest
	// part among their neighbours' parts, else the lightest part.
	for v := range a {
		if a[v] != -1 {
			continue
		}
		best := -1
		for _, w := range g.row(v) {
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
	s.refineWeighted(g, a, weights, target, 4, drain)
	return a
}

// refineWeighted runs FM-style passes on a weighted graph: move boundary
// vertices to the neighbouring part with the highest edge-weight gain,
// subject to a balance cap. With drain set, vertices in overweight parts
// may move at a loss, draining the part toward balance.
func (s *scratch) refineWeighted(g *wgraph, a Assignment, weights []int32, target int32, passes int, drain bool) {
	nparts := len(weights)
	maxW := target + target/20 + 1
	// conn[p] is v's edge weight into part p; only the few parts in touch —
	// v's neighbours' — are non-zero, visited (in ascending order, which the
	// tie-breaks below depend on) and cleared, so a vertex costs its degree,
	// not the part count.
	conn := reuse.Filled(s.conn, nparts, 0)
	touch := s.touch[:0]
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
			overweight := drain && weights[own] > maxW
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
	s.conn, s.touch = conn, touch
}

// multilevel is the full pipeline on the loaded graph, which must have at
// least nparts vertices. The assignment it returns lives in s.
func (s *scratch) multilevel(nparts int) Assignment {
	g := s.level(0)
	s.toCSR(g)
	// The two assignment buffers take turns holding the projections, so
	// which one ends with the finest level depends on the level count: size
	// both for it, so that one call warms them.
	for i := range s.asg {
		s.asg[i] = reuse.Resize(s.asg[i], g.nv())
	}
	nl := 1
	coarsestTarget := max(128, 8*nparts)
	for cur := g; cur.nv() > coarsestTarget; {
		cmap, nc := s.matchHeavyEdge(cur, s.cmaps[nl-1])
		s.cmaps[nl-1] = cmap
		if nc >= cur.nv()*95/100 {
			break // matching stalled (star graphs etc.)
		}
		cur = s.level(nl)
		s.coarsen(s.levels[nl-1], cmap, nc, cur)
		nl++
	}

	a := s.growWeightedBest(s.levels[nl-1], nparts)
	// Project back up, refining at each level.
	for li := nl - 2; li >= 0; li-- {
		cmap := s.cmaps[li]
		fine := s.levels[li]
		fa := reuse.Resize(s.asg[1], fine.nv())
		for v := range fa {
			fa[v] = a[cmap[v]]
		}
		weights := reuse.Filled(s.weights, nparts, 0)
		s.weights = weights
		totalW := int32(0)
		for v := 0; v < fine.nv(); v++ {
			weights[fa[v]] += fine.vwgt[v]
			totalW += fine.vwgt[v]
		}
		target := (totalW + int32(nparts) - 1) / int32(nparts)
		s.refineWeighted(fine, fa, weights, target, 6, true)
		s.asg[0], s.asg[1] = fa, a
		a = fa
	}
	// Guarantee no empty part (possible on degenerate coarse graphs):
	// steal the lightest boundary vertex repeatedly.
	s.fixEmptyParts(a, nparts)
	return a
}

func (s *scratch) fixEmptyParts(a Assignment, nparts int) {
	sizes := reuse.Filled(s.sizes, nparts, 0)
	s.sizes = sizes
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
