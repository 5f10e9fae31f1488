package partition

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"op2ca/internal/mesh"
)

// multilevelKWay is KWay forced through the multilevel pipeline, whatever
// the graph's size.
func multilevelKWay(adj [][]int32, nparts int) Assignment {
	s := getScratch()
	s.fromLists(adj)
	return s.done(s.multilevel(nparts))
}

// greedyKWay is KWay forced through the direct partitioner.
func greedyKWay(adj [][]int32, nparts int) Assignment {
	s := getScratch()
	s.fromLists(adj)
	return s.done(s.greedy(nparts))
}

// csrOf is the merged graph of adj, in a scratch of its own.
func csrOf(adj [][]int32) *wgraph {
	var s scratch
	s.fromLists(adj)
	g := s.level(0)
	s.toCSR(g)
	return g
}

// path is the pipeline a golden case goes through.
type path int

const (
	bySize     path = iota // KWay's choice
	multilevel             // forced through the multilevel pipeline
	direct                 // forced through the direct partitioner
)

// goldenKWay is one of TestKWayReusesScratch's cases: a graph, a part count,
// the pipeline, and the pinned hash.
type goldenKWay struct {
	name   string
	adj    [][]int32
	nparts int
	path   path
	want   string
}

// run partitions g through the pool, as KWay does.
func (g goldenKWay) run() Assignment {
	switch g.path {
	case multilevel:
		return multilevelKWay(g.adj, g.nparts)
	case direct:
		return greedyKWay(g.adj, g.nparts)
	}
	return KWay(g.adj, g.nparts)
}

// hashIn partitions g in s and hashes the result before s is used again.
func (g goldenKWay) hashIn(s *scratch) string {
	s.fromLists(g.adj)
	switch g.path {
	case multilevel:
		return assignHash(s.multilevel(g.nparts))
	case direct:
		return assignHash(s.greedy(g.nparts))
	}
	return assignHash(s.kway(g.nparts))
}

// disconnected is the disjoint union of a box and a rotor, with an isolated
// vertex before, between and after them.
func disconnected() [][]int32 {
	adj := [][]int32{nil}
	for _, part := range [][][]int32{mesh.Box(3, 3, 3).NodeAdjacency(), mesh.Rotor(4, 3, 4).NodeAdjacency()} {
		base := int32(len(adj))
		for _, row := range part {
			shifted := make([]int32, len(row))
			for i, w := range row {
				shifted[i] = w + base
			}
			adj = append(adj, shifted)
		}
		adj = append(adj, nil)
	}
	return adj
}

// goldenKWays are TestKWayGolden's cases and the hashes it pins, and the
// direct partitioner's: small rotors and boxes at KWay's choice, a graph with
// duplicate edges and a self-loop, a disconnected one, and the 20 000-node
// rotor TestMultilevelBeatsGreedy forces through it.
func goldenKWays() []goldenKWay {
	var cases []goldenKWay
	for _, tc := range []struct {
		nodes int
		want  [3]string // 4, 16, 64 parts
	}{
		{4200, [3]string{"144977b7ca3b6725", "9f53a6dd9bf4ae4f", "aae411197eaf7488"}},
		{6175, [3]string{"b2d531c64eeb6a35", "326576976657e572", "cbaeeba07b034364"}},
		{20000, [3]string{"a2c235caf5bf3f25", "840629204fd87d3b", "ae81375d15837c45"}},
	} {
		adj := mesh.RotorForNodes(tc.nodes).NodeAdjacency()
		for i, nparts := range []int{4, 16, 64} {
			cases = append(cases, goldenKWay{fmt.Sprintf("rotor%d/%d", tc.nodes, nparts), adj, nparts, bySize, tc.want[i]})
		}
	}
	adj := mesh.Rotor(8, 6, 5).NodeAdjacency()
	cases = append(cases,
		goldenKWay{"rotor240/4-greedy", adj, 4, bySize, "b46e66f1f0f0b2b6"},
		goldenKWay{"rotor240/4-multilevel", adj, 4, multilevel, "93809474cef0c0a7"})

	for _, tc := range []struct {
		name string
		m    *mesh.FV3D
		want []string // 2, 3, 4, 7, 16 parts, as many as the mesh has nodes for
	}{
		{"box8", mesh.Box(2, 2, 2), []string{"fdcdb80e5fd8d165", "e6f6498e69cdd9a5", "0a91e809df26d3a5", "76ba990ee5634522"}},
		{"box60", mesh.Box(3, 4, 5), []string{"9cb0220c75707665", "6c6b1a9c324a5e55", "31070da0fac800d4", "a517cc1087758d65", "1950b65cc4916d08"}},
		{"box216", mesh.Box(6, 6, 6), []string{"8e22cd9efdd1c595", "f2684e37230f9675", "c0cfd8749ed4b947", "689b1892fe2d3994", "dda0bf9449acb346"}},
		{"rotor12", mesh.Rotor(2, 2, 3), []string{"a48611a7ca531e85", "8f1eefc74828ed67", "2586dd82f5d1dd45", "b114a5f3eaac8693"}},
		{"rotor48", mesh.Rotor(4, 3, 4), []string{"ee6a202322498525", "b571657301541307", "e671a99219aca1a5", "2f19e11dbbc3de45", "b5151716ff95f0ef"}},
		{"rotor120", mesh.Rotor(6, 5, 4), []string{"30a248ac579bb0e5", "360b96785cc35a75", "ddbdd76bb99c7ce5", "145f2970d7228044", "f458d6d0c4a5f7a5"}},
		{"rotor240", mesh.Rotor(8, 6, 5), []string{"e1fa064872f8be85", "0cf6092dce3b8777", "b46e66f1f0f0b2b6", "565e589785b34e24", "96234470258224ea"}},
	} {
		adj := tc.m.NodeAdjacency()
		for i, want := range tc.want {
			nparts := []int{2, 3, 4, 7, 16}[i]
			cases = append(cases, goldenKWay{fmt.Sprintf("%s/%d", tc.name, nparts), adj, nparts, bySize, want})
		}
	}
	dup, apart := withExtraEdges(mesh.Box(4, 4, 4)).NodeAdjacency(), disconnected()
	big := mesh.RotorForNodes(20000).NodeAdjacency()
	return append(cases,
		goldenKWay{"box64+dup/3", dup, 3, bySize, "6775316a72fa1ac5"},
		goldenKWay{"box64+dup/7", dup, 7, bySize, "cf6c3a628c8e6c81"},
		goldenKWay{"disconnected/2", apart, 2, bySize, "003e35b486e5c245"},
		goldenKWay{"disconnected/4", apart, 4, bySize, "188e7561459a6bf7"},
		goldenKWay{"disconnected/7", apart, 7, bySize, "c9eb8e66c0a117c4"},
		goldenKWay{"rotor20000/8-direct", big, 8, direct, "16452d02f5486366"},
		goldenKWay{"rotor20000/24-direct", big, 24, direct, "f5f1033c6c16363e"})
}

// TestKWayReusesScratch (run under -race): KWay hands its scratch from one
// call to the next, across shapes. TestKWayGolden's cases are partitioned
// forward, in reverse, interleaved, after a larger graph and from two
// goroutines at once, and every result hashes to its golden value — hashed
// only after all the calls of its order, so a result that kept a view of the
// scratch a later call refilled fails. A scratch whose merge stamps are about
// to overflow gives the golden values too. And, without -race, a warm call
// allocates its result and a small constant more: the scratch is not made
// again.
func TestKWayReusesScratch(t *testing.T) {
	cases := goldenKWays()
	n := len(cases)
	forward := make([]int, n)
	reverse := make([]int, n)
	interleaved := make([]int, 0, n)
	for i := range cases {
		forward[i], reverse[i] = i, n-1-i
		if i%2 == 0 {
			interleaved = append(interleaved, i/2)
		} else {
			interleaved = append(interleaved, n-1-i/2)
		}
	}
	check := func(label string, order []int) {
		got := make([]Assignment, len(order))
		for k, i := range order {
			got[k] = cases[i].run()
		}
		for k, i := range order {
			if h := assignHash(got[k]); h != cases[i].want {
				t.Errorf("%s: %s hashes to %s, want %s", label, cases[i].name, h, cases[i].want)
			}
		}
	}
	check("forward", forward)
	check("reverse", reverse)
	check("interleaved", interleaved)
	var wg sync.WaitGroup
	for _, order := range [][]int{forward, reverse} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				check("concurrent", order)
			}
		}()
	}
	wg.Wait()

	// One scratch, held outside the pool: dirtied by a larger graph with
	// duplicate edges at more parts, then by each case in turn; and with
	// its merge stamps one graph short of overflow.
	big := mesh.RotorForNodes(30000)
	dirty := new(scratch)
	dirty.fromPairs(big.NNodes, [][]int32{big.EdgeNodes, big.PedgeNodes, big.EdgeNodes[:600]})
	dirty.kway(96)
	for _, order := range [][]int{forward, reverse, interleaved} {
		for _, i := range order {
			if h := cases[i].hashIn(dirty); h != cases[i].want {
				t.Errorf("dirty scratch: %s hashes to %s, want %s", cases[i].name, h, cases[i].want)
			}
		}
	}
	for _, c := range cases {
		s := new(scratch)
		s.merger.base = math.MaxInt32 - int32(len(c.adj)) - 3
		if h := c.hashIn(s); h != c.want {
			t.Errorf("stamps near overflow: %s hashes to %s, want %s", c.name, h, c.want)
		}
	}

	// Allocation, at one P and with the collector off, so that the pool
	// hands back what the warm-up put in; the least of a few calls, so that a
	// stray allocation elsewhere in the process does not decide it. Under
	// -race sync.Pool drops a share of what is put back, often enough that
	// every one of a few calls can start from a fresh scratch.
	if raceEnabled {
		return
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const slack = 512
	rotor := mesh.RotorForNodes(6175)
	type call struct {
		name string
		run  func() Assignment
	}
	calls := []call{{"edges rotor6175/16", func() Assignment {
		return KWayEdges(rotor.NNodes, 16, rotor.EdgeNodes, rotor.PedgeNodes)
	}}}
	for _, c := range cases {
		calls = append(calls, call{c.name, c.run})
	}
	for _, c := range calls {
		out := allocated[int32](len(c.run()))
		least := ^uint64(0)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c.run()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > out+slack {
			t.Errorf("%s: a warm call allocates %d bytes, its result is %d", c.name, least, out)
		}
	}
}

// allocated is what the allocator hands out for n values of T: the request
// rounded up to its size class, as append's growth rounds it.
func allocated[T any](n int) uint64 {
	if n == 0 {
		return 0
	}
	return uint64(cap(slices.Grow([]T(nil), n))) * uint64(reflect.TypeFor[T]().Size())
}

// withExtraEdges returns a copy of m whose edge list also holds a duplicate
// of every 7th edge, one reversed, and a self-loop.
func withExtraEdges(m *mesh.FV3D) *mesh.FV3D {
	c := *m
	c.EdgeNodes = slices.Clone(m.EdgeNodes)
	for e := 0; e < m.NEdges; e += 7 {
		c.EdgeNodes = append(c.EdgeNodes, m.EdgeNodes[2*e], m.EdgeNodes[2*e+1])
	}
	c.EdgeNodes = append(c.EdgeNodes, m.EdgeNodes[1], m.EdgeNodes[0], 5, 5)
	c.NEdges = len(c.EdgeNodes) / 2
	return &c
}

// TestKWayEdgesMatchesLists: loaded from a mesh's edge-pair lists, the graph
// is the one NodeAdjacency's lists give — the same rows in the same order,
// and the same merged CSR — on periodic (rotor) and non-periodic (box)
// meshes with duplicate edges and a self-loop; so KWayEdges and KWay agree at
// every part count.
func TestKWayEdgesMatchesLists(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *mesh.FV3D
	}{
		{"rotor", mesh.RotorForNodes(6000)},
		{"rotor+dup", withExtraEdges(mesh.RotorForNodes(6000))},
		{"box", mesh.Box(16, 16, 16)},
		{"box+dup", withExtraEdges(mesh.Box(16, 16, 16))},
	} {
		m := tc.m
		adj := m.NodeAdjacency()
		var lists, pairs scratch
		lists.fromLists(adj)
		pairs.fromPairs(m.NNodes, [][]int32{m.EdgeNodes, m.PedgeNodes})
		if !reflect.DeepEqual(lists.in, pairs.in) {
			t.Fatalf("%s: edge-pair rows differ from NodeAdjacency's", tc.name)
		}
		gl, gp := lists.level(0), pairs.level(0)
		lists.toCSR(gl)
		pairs.toCSR(gp)
		if !reflect.DeepEqual(gl, gp) {
			t.Fatalf("%s: edge-pair merged CSR differs from NodeAdjacency's", tc.name)
		}
		for _, nparts := range []int{4, 16, 64} {
			want := KWay(adj, nparts)
			if got := KWayEdges(m.NNodes, nparts, m.EdgeNodes, m.PedgeNodes); !slices.Equal(got, want) {
				t.Errorf("%s, %d parts: KWayEdges differs from KWay", tc.name, nparts)
			}
		}
	}
}
