package partition

import (
	"fmt"
	"slices"
	"sync"

	"op2ca/internal/reuse"
)

// scratches keeps the scratch of finished KWay calls for later ones, so a
// process that partitions many graphs sizes its scratch once. A kept scratch
// refers to nothing of the graph it served (the input is copied in), and two
// collections empty the pool, so an idle process holds none.
var scratches sync.Pool // of *scratch, no New: an empty pool hands over nil

// scratch is everything one KWay call works in, taken from scratches and put
// back when the call is done, so concurrent calls each hold their own. Every
// array is re-initialised by the pass that uses it, and reallocated only for
// a graph or a part count larger than any it has served; the result is a
// copy, so nothing a caller holds is in here.
type scratch struct {
	in   csr     // the graph as given: duplicates and self-loops kept, rows in input order
	ones []int32 // greedy's weights of in's every vertex and entry

	// The multilevel hierarchy: levels[0] is in, merged; levels[i+1] is
	// levels[i] coarsened through cmaps[i]. Both keep every level any call
	// built; a call uses a prefix.
	levels  []*wgraph
	cmaps   [][]int32
	merger  rowMerger
	match   []int32 // matchHeavyEdge's partner of every vertex
	first   []int32 // coarsen's counting sort of fine vertices by coarse vertex
	members []int32

	// asg[0] is the assignment being worked on: the best grow attempt, then
	// each level's projection; asg[1] is the next attempt or projection.
	asg [2]Assignment

	weights   []int32 // per part
	scores    []int64 // per part: growWeightedBest's balance
	conn      []int64 // per part: refineWeighted's connectivity of one vertex
	touch     []int32 // the parts conn holds non-zero
	sizes     []int   // per part
	seeds     []int32
	dist      []int32 // per vertex: BFS distance
	queue     []int32 // BFS queue
	frontiers [][]int32
	next      [][]int32 // each part's next frontier, swapped with its frontier every round
}

// getScratch takes a scratch from the pool, or makes one.
func getScratch() *scratch {
	s, _ := scratches.Get().(*scratch)
	if s == nil {
		s = new(scratch)
	}
	return s
}

// done puts s back in the pool and returns a copy of a, which lives in s: a
// warm call allocates this copy alone.
func (s *scratch) done(a Assignment) Assignment {
	out := slices.Clone(a)
	scratches.Put(s)
	return out
}

// kway partitions the loaded graph: the multilevel pipeline for large
// graphs, greedy growing for small ones.
func (s *scratch) kway(nparts int) Assignment {
	if s.in.nv() > max(256, 16*nparts) {
		return s.multilevel(nparts)
	}
	return s.greedy(nparts)
}

// csr is a graph's adjacency in compressed rows: v's neighbours are
// adjncy[xadj[v]:xadj[v+1]].
type csr struct {
	xadj   []int32 // len nv+1
	adjncy []int32
}

func (g *csr) nv() int { return len(g.xadj) - 1 }

func (g *csr) row(v int) []int32 { return g.adjncy[g.xadj[v]:g.xadj[v+1]] }

// fromLists loads adjacency lists into s.in, row by row.
func (s *scratch) fromLists(adj [][]int32) {
	nent := 0
	for _, row := range adj {
		nent += len(row)
	}
	g := &s.in
	g.xadj, g.adjncy = reuse.Resize(g.xadj, len(adj)+1), reuse.Resize(g.adjncy, nent)
	g.xadj[0] = 0
	for v, row := range adj {
		g.xadj[v+1] = g.xadj[v] + int32(copy(g.adjncy[g.xadj[v]:], row))
	}
}

// fromPairs loads the graph on n vertices whose edges are the pairs of every
// list, two vertex ids an edge, into s.in: each pair a-b appends b to a's row
// and a to b's, list by list and pair by pair — the rows adjacency lists
// built by that rule hold (mesh.FV3D.NodeAdjacency over EdgeNodes and
// PedgeNodes), element for element.
func (s *scratch) fromPairs(n int, pairs [][]int32) {
	nent := 0
	for _, p := range pairs {
		if len(p)%2 != 0 {
			panic(fmt.Sprintf("partition: edge list of odd length %d", len(p)))
		}
		nent += len(p)
	}
	g := &s.in
	g.xadj, g.adjncy = reuse.Filled(g.xadj, n+1, 0), reuse.Resize(g.adjncy, nent)
	for _, p := range pairs {
		for _, v := range p {
			g.xadj[v+1]++
		}
	}
	for v := 1; v <= n; v++ {
		g.xadj[v] += g.xadj[v-1]
	}
	// xadj[v] is v's fill cursor, and ends at v+1's start: shift it back.
	for _, p := range pairs {
		for e := 0; e < len(p); e += 2 {
			a, b := p[e], p[e+1]
			g.adjncy[g.xadj[a]] = b
			g.xadj[a]++
			g.adjncy[g.xadj[b]] = a
			g.xadj[b]++
		}
	}
	copy(g.xadj[1:], g.xadj[:n])
	g.xadj[0] = 0
}

// level returns s.levels[i], made if no call has built that many levels.
func (s *scratch) level(i int) *wgraph {
	if i == len(s.levels) {
		s.levels = append(s.levels, new(wgraph))
		s.cmaps = append(s.cmaps, nil)
	}
	return s.levels[i]
}

// startFrontiers returns nparts empty frontiers.
func (s *scratch) startFrontiers(nparts int) [][]int32 {
	for len(s.frontiers) < nparts {
		s.frontiers, s.next = append(s.frontiers, nil), append(s.next, nil)
	}
	for p := range nparts {
		s.frontiers[p] = s.frontiers[p][:0]
	}
	return s.frontiers[:nparts]
}
