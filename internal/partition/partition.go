// Package partition assigns mesh elements to ranks for distributed
// execution. It provides the two partitioner families used in the paper's
// evaluation — a k-way graph partitioner in the spirit of ParMETIS k-way
// (greedy graph growing plus Fiduccia–Mattheyses-style boundary refinement),
// used for MG-CFD, and recursive inertial bisection on element coordinates,
// Hydra's default — along with simpler block and random partitioners and
// partition-quality metrics.
package partition

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Assignment maps each element of the partitioned (primary) set to a rank.
type Assignment []int32

// NumParts returns the number of parts (max rank + 1, or 0 when empty).
func (a Assignment) NumParts() int {
	n := int32(-1)
	for _, p := range a {
		if p > n {
			n = p
		}
	}
	return int(n + 1)
}

// PartSizes returns the element count of each of nparts parts.
func (a Assignment) PartSizes(nparts int) []int {
	sizes := make([]int, nparts)
	for _, p := range a {
		sizes[p]++
	}
	return sizes
}

// Block assigns contiguous index ranges of nearly equal size to each rank.
func Block(n, nparts int) Assignment {
	checkArgs(n, nparts)
	a := make(Assignment, n)
	for i := range a {
		a[i] = int32(i * nparts / n)
	}
	return a
}

// Random assigns elements to ranks pseudo-randomly (balanced in
// expectation), deterministically from seed. It exists to stress halo
// construction with worst-case fragmentation, not for performance runs.
func Random(n, nparts int, seed int64) Assignment {
	checkArgs(n, nparts)
	rng := rand.New(rand.NewSource(seed))
	a := make(Assignment, n)
	for i := range a {
		a[i] = int32(rng.Intn(nparts))
	}
	return a
}

func checkArgs(n, nparts int) {
	if n <= 0 {
		panic(fmt.Sprintf("partition: no elements to partition (n=%d)", n))
	}
	if nparts <= 0 || nparts > n {
		panic(fmt.Sprintf("partition: invalid part count %d for %d elements", nparts, n))
	}
}

// KWay partitions the graph given by the symmetric adjacency lists into
// nparts balanced parts, minimising edge cut. Large graphs go through the
// multilevel pipeline (heavy-edge-matching coarsening, coarse partitioning,
// projected FM refinement — the METIS recipe); small graphs are partitioned
// directly by greedy growing.
func KWay(adj [][]int32, nparts int) Assignment {
	checkArgs(len(adj), nparts)
	if len(adj) > max(256, 16*nparts) {
		return multilevelKWay(adj, nparts)
	}
	return greedyKWay(adj, nparts)
}

// greedyKWay is the direct partitioner: multi-seed greedy graph growing
// followed by refinement passes.
func greedyKWay(adj [][]int32, nparts int) Assignment {
	n := len(adj)
	a := make(Assignment, n)
	for i := range a {
		a[i] = -1
	}
	target := (n + nparts - 1) / nparts

	seeds := spreadSeeds(adj, nparts)
	sizes := make([]int, nparts)
	frontiers := make([][]int32, nparts)
	for p, s := range seeds {
		a[s] = int32(p)
		sizes[p] = 1
		frontiers[p] = append(frontiers[p], s)
	}
	// Round-robin frontier growth: each part claims one layer step at a
	// time until it reaches its target size or its frontier empties.
	active := nparts
	for active > 0 {
		active = 0
		for p := 0; p < nparts; p++ {
			if sizes[p] >= target || len(frontiers[p]) == 0 {
				continue
			}
			var next []int32
			for _, v := range frontiers[p] {
				for _, w := range adj[v] {
					if a[w] == -1 && sizes[p] < target {
						a[w] = int32(p)
						sizes[p]++
						next = append(next, w)
					}
				}
				if sizes[p] >= target {
					break
				}
			}
			frontiers[p] = next
			if sizes[p] < target && len(next) > 0 {
				active++
			}
		}
	}
	// Unclaimed vertices (disconnected or squeezed out): assign each to
	// the smallest part among its neighbours' parts, else globally
	// smallest.
	for v := range a {
		if a[v] != -1 {
			continue
		}
		best := -1
		for _, w := range adj[v] {
			if a[w] >= 0 && (best == -1 || sizes[a[w]] < sizes[best]) {
				best = int(a[w])
			}
		}
		if best == -1 {
			best = 0
			for p := 1; p < nparts; p++ {
				if sizes[p] < sizes[best] {
					best = p
				}
			}
		}
		a[v] = int32(best)
		sizes[best]++
	}
	refine(adj, a, sizes, target, 4)
	return a
}

// refine runs FM-style boundary passes: move a vertex to the neighbouring
// part with the highest connectivity gain, while keeping every part within
// maxSize. Moves with zero gain are allowed only when they improve balance.
func refine(adj [][]int32, a Assignment, sizes []int, target, passes int) {
	nparts := len(sizes)
	maxSize := target + target/20 + 1
	counts := make([]int, nparts)
	for pass := 0; pass < passes; pass++ {
		moved := 0
		for v := range adj {
			if len(adj[v]) == 0 {
				continue
			}
			own := a[v]
			if sizes[own] <= 1 {
				continue
			}
			for i := range counts {
				counts[i] = 0
			}
			for _, w := range adj[v] {
				counts[a[w]]++
			}
			best, bestGain := own, 0
			for p := 0; p < nparts; p++ {
				if int32(p) == own || sizes[p] >= maxSize {
					continue
				}
				gain := counts[p] - counts[own]
				if gain > bestGain ||
					(gain == bestGain && gain > 0 && sizes[p] < sizes[best]) ||
					(gain == 0 && bestGain == 0 && counts[p] > 0 && sizes[p]+1 < sizes[own]) {
					best, bestGain = int32(p), gain
				}
			}
			if best != own {
				sizes[own]--
				sizes[best]++
				a[v] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

// spreadSeeds picks nparts mutually distant vertices by repeated
// farthest-point BFS from the previous seed set.
func spreadSeeds(adj [][]int32, nparts int) []int32 {
	return spreadSeedsFrom(adj, nparts, 0)
}

// spreadSeedsFrom is spreadSeeds with a chosen starting vertex, letting
// multi-start partitioners explore different seed placements.
func spreadSeedsFrom(adj [][]int32, nparts int, start int32) []int32 {
	n := len(adj)
	seeds := make([]int32, 0, nparts)
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	// Seed with the BFS-farthest vertex from start: a stable boundary seed.
	seeds = append(seeds, bfsFarthest(adj, []int32{start}, dist, queue))
	for len(seeds) < nparts {
		far := bfsFarthest(adj, seeds, dist, queue)
		seeds = append(seeds, far)
	}
	return seeds
}

// bfsFarthest returns a vertex at maximum BFS distance from the source set.
// Unreachable vertices are preferred (they seed disconnected components).
func bfsFarthest(adj [][]int32, sources []int32, dist []int32, queue []int32) int32 {
	for i := range dist {
		dist[i] = -1
	}
	queue = queue[:0]
	for _, s := range sources {
		dist[s] = 0
		queue = append(queue, s)
	}
	last := sources[0]
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range adj[v] {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
				last = w
			}
		}
	}
	for v := range dist {
		if dist[v] == -1 {
			return int32(v)
		}
	}
	return last
}

// RIB partitions elements by recursive inertial bisection of their
// coordinates (dim values per element): project onto the principal axis of
// the point set and split at the weighted median, recursing until nparts
// parts exist. This is the default partitioner of Hydra in the paper.
func RIB(coords []float64, dim, nparts int) Assignment {
	return recursiveBisect(coords, dim, nparts, true)
}

// RCB partitions elements by recursive coordinate bisection: like RIB but
// splitting along the coordinate axis of largest extent.
func RCB(coords []float64, dim, nparts int) Assignment {
	return recursiveBisect(coords, dim, nparts, false)
}

func recursiveBisect(coords []float64, dim, nparts int, inertial bool) Assignment {
	if dim <= 0 || len(coords)%dim != 0 {
		panic(fmt.Sprintf("partition: coords length %d not divisible by dim %d", len(coords), dim))
	}
	n := len(coords) / dim
	checkArgs(n, nparts)
	a := make(Assignment, n)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	bisect(coords, dim, idx, 0, nparts, a, inertial)
	return a
}

// bisect assigns parts [base, base+nparts) to the elements in idx.
func bisect(coords []float64, dim int, idx []int32, base, nparts int, a Assignment, inertial bool) {
	if nparts == 1 {
		for _, e := range idx {
			a[e] = int32(base)
		}
		return
	}
	leftParts := nparts / 2
	rightParts := nparts - leftParts
	// Element split proportional to part counts.
	nLeft := len(idx) * leftParts / nparts

	var axis []float64
	if inertial {
		axis = principalAxis(coords, dim, idx)
	} else {
		axis = widestAxis(coords, dim, idx)
	}
	sort.Slice(idx, func(i, j int) bool {
		return project(coords, dim, idx[i], axis) < project(coords, dim, idx[j], axis)
	})
	bisect(coords, dim, idx[:nLeft], base, leftParts, a, inertial)
	bisect(coords, dim, idx[nLeft:], base+leftParts, rightParts, a, inertial)
}

func project(coords []float64, dim int, e int32, axis []float64) float64 {
	s := 0.0
	for d := 0; d < dim; d++ {
		s += coords[int(e)*dim+d] * axis[d]
	}
	return s
}

// principalAxis computes the dominant eigenvector of the covariance matrix
// of the selected points by power iteration.
func principalAxis(coords []float64, dim int, idx []int32) []float64 {
	mean := make([]float64, dim)
	for _, e := range idx {
		for d := 0; d < dim; d++ {
			mean[d] += coords[int(e)*dim+d]
		}
	}
	for d := range mean {
		mean[d] /= float64(len(idx))
	}
	cov := make([]float64, dim*dim)
	for _, e := range idx {
		for d1 := 0; d1 < dim; d1++ {
			v1 := coords[int(e)*dim+d1] - mean[d1]
			for d2 := 0; d2 < dim; d2++ {
				cov[d1*dim+d2] += v1 * (coords[int(e)*dim+d2] - mean[d2])
			}
		}
	}
	v := make([]float64, dim)
	w := make([]float64, dim)
	for d := range v {
		v[d] = 1 / float64(d+1) // deterministic non-degenerate start
	}
	for it := 0; it < 32; it++ {
		norm := 0.0
		for d1 := 0; d1 < dim; d1++ {
			w[d1] = 0
			for d2 := 0; d2 < dim; d2++ {
				w[d1] += cov[d1*dim+d2] * v[d2]
			}
			norm += w[d1] * w[d1]
		}
		if norm == 0 {
			break // degenerate (all points coincident): keep start vector
		}
		inv := 1 / math.Sqrt(norm)
		for d := range v {
			v[d] = w[d] * inv
		}
	}
	return v
}

func widestAxis(coords []float64, dim int, idx []int32) []float64 {
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	copy(lo, coords[int(idx[0])*dim:int(idx[0])*dim+dim])
	copy(hi, lo)
	for _, e := range idx {
		for d := 0; d < dim; d++ {
			c := coords[int(e)*dim+d]
			if c < lo[d] {
				lo[d] = c
			}
			if c > hi[d] {
				hi[d] = c
			}
		}
	}
	best := 0
	for d := 1; d < dim; d++ {
		if hi[d]-lo[d] > hi[best]-lo[best] {
			best = d
		}
	}
	axis := make([]float64, dim)
	axis[best] = 1
	return axis
}
