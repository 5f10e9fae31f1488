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

	"op2ca/internal/reuse"
)

// Assignment maps each element of the partitioned (primary) set to a rank.
type Assignment []int32

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
// directly by greedy growing. The work is done in pooled scratch: a call on
// a graph no larger than an earlier one's allocates its result alone.
func KWay(adj [][]int32, nparts int) Assignment {
	checkArgs(len(adj), nparts)
	s := getScratch()
	s.fromLists(adj)
	return s.done(s.kway(nparts))
}

// KWayEdges is KWay on the graph of n vertices whose edges are the pairs of
// the given lists, two vertex ids an edge — a mesh's EdgeNodes and
// PedgeNodes, say — without building its adjacency lists: the result is
// KWay's on the lists that append, for each pair a-b in order, b to a's list
// and a to b's (mesh.FV3D.NodeAdjacency's rule).
func KWayEdges(n, nparts int, pairs ...[]int32) Assignment {
	checkArgs(n, nparts)
	s := getScratch()
	s.fromPairs(n, pairs)
	return s.done(s.kway(nparts))
}

// greedy is the direct partitioner of the loaded graph: the multilevel
// pipeline's grower, growWeighted, run once from vertex 0 on s.in as given —
// duplicates and self-loops kept, every vertex and entry of weight 1 — with
// no refinement move that drains an overweight part at a loss. The
// assignment it returns lives in s.
func (s *scratch) greedy(nparts int) Assignment {
	n, nent := s.in.nv(), len(s.in.adjncy)
	s.ones = reuse.Filled(s.ones, max(n, nent), 1)
	g := wgraph{csr: s.in, vwgt: s.ones[:n], adjwgt: s.ones[:nent]}
	s.asg[0] = s.growWeighted(&g, nparts, 0, s.asg[0], false)
	return s.asg[0]
}

// spreadSeeds picks nparts mutually distant vertices of g by repeated
// farthest-point BFS from the previous seed set, the first from the given
// start vertex, so multi-start partitioners can explore different seed
// placements.
func (s *scratch) spreadSeeds(g *csr, nparts int, start int32) []int32 {
	n := g.nv()
	s.dist, s.queue = reuse.Resize(s.dist, n), reuse.Resize(s.queue, n)
	// Seed with the BFS-farthest vertex from start: a stable boundary seed.
	seeds := append(s.seeds[:0], start)
	seeds[0] = bfsFarthest(g, seeds, s.dist, s.queue)
	for len(seeds) < nparts {
		far := bfsFarthest(g, seeds, s.dist, s.queue)
		seeds = append(seeds, far)
	}
	s.seeds = seeds
	return seeds
}

// bfsFarthest returns a vertex at maximum BFS distance from the source set.
// Unreachable vertices are preferred (they seed disconnected components).
// queue must have room for every vertex.
func bfsFarthest(g *csr, sources []int32, dist []int32, queue []int32) int32 {
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
		for _, w := range g.row(int(v)) {
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
