package partition

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"op2ca/internal/mesh"
)

func TestCSRConversion(t *testing.T) {
	// Duplicate edges (0-1 twice) must merge into edge weight 2.
	adj := [][]int32{{1, 1, 2}, {0, 0}, {0}}
	g := toCSR(adj)
	if g.nv() != 3 {
		t.Fatalf("nv = %d", g.nv())
	}
	if g.xadj[1]-g.xadj[0] != 2 {
		t.Fatalf("vertex 0 should have 2 merged neighbours")
	}
	foundHeavy := false
	for e := g.xadj[0]; e < g.xadj[1]; e++ {
		if g.adjncy[e] == 1 && g.adjwgt[e] == 2 {
			foundHeavy = true
		}
	}
	if !foundHeavy {
		t.Fatal("duplicate edge not merged into weight 2")
	}
	// Self-loops are dropped.
	g2 := toCSR([][]int32{{0, 1}, {0}})
	if g2.xadj[1]-g2.xadj[0] != 1 {
		t.Fatal("self-loop not dropped")
	}
}

func TestMatchingAndCoarsening(t *testing.T) {
	// A path 0-1-2-3: matching pairs vertices, coarse graph keeps the
	// total vertex weight and stays connected.
	g := toCSR([][]int32{{1}, {0, 2}, {1, 3}, {2}})
	cmap, nc := matchHeavyEdge(g)
	if nc >= g.nv() {
		t.Fatalf("matching did not shrink: %d -> %d", g.nv(), nc)
	}
	c := coarsen(g, cmap, nc)
	var wFine, wCoarse int32
	for _, w := range g.vwgt {
		wFine += w
	}
	for _, w := range c.vwgt {
		wCoarse += w
	}
	if wFine != wCoarse {
		t.Fatalf("coarsening lost vertex weight: %d -> %d", wFine, wCoarse)
	}
}

func TestMultilevelBeatsGreedy(t *testing.T) {
	m := mesh.RotorForNodes(20000)
	adj := m.NodeAdjacency()
	for _, nparts := range []int{8, 24} {
		ml := Evaluate(adj, multilevelKWay(adj, nparts), nparts)
		gr := Evaluate(adj, greedyKWay(adj, nparts), nparts)
		if ml.Imbalance > 1.06 {
			t.Errorf("nparts=%d: multilevel imbalance %.3f", nparts, ml.Imbalance)
		}
		// Multilevel must not be clearly worse than flat greedy.
		if float64(ml.EdgeCut) > 1.1*float64(gr.EdgeCut) {
			t.Errorf("nparts=%d: multilevel cut %d vs greedy %d", nparts, ml.EdgeCut, gr.EdgeCut)
		}
	}
}

func TestMultilevelCoversAllParts(t *testing.T) {
	m := mesh.RotorForNodes(8000)
	adj := m.NodeAdjacency()
	for _, nparts := range []int{2, 13, 40} {
		a := multilevelKWay(adj, nparts)
		sizes := a.PartSizes(nparts)
		for p, s := range sizes {
			if s == 0 {
				t.Fatalf("nparts=%d: part %d empty", nparts, p)
			}
		}
		if len(a) != m.NNodes {
			t.Fatalf("wrong assignment length")
		}
	}
}

func TestCutWeight(t *testing.T) {
	g := toCSR([][]int32{{1}, {0, 2}, {1, 3}, {2}})
	if c := cutWeight(g, Assignment{0, 0, 1, 1}); c != 1 {
		t.Errorf("cut = %d, want 1", c)
	}
	if c := cutWeight(g, Assignment{0, 1, 0, 1}); c != 3 {
		t.Errorf("alternating cut = %d, want 3", c)
	}
}

func assignHash(a Assignment) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, p := range a {
		binary.LittleEndian.PutUint32(buf[:], uint32(p))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestKWayGolden pins the multilevel pipeline's assignment byte for byte on
// the graph shapes the benchmark partitions (hashes captured with the
// map-and-sort toCSR/coarsen): any change to a neighbour order, an edge
// weight or a coarse numbering moves a matching and fails here before it
// moves a layout or a clock.
func TestKWayGolden(t *testing.T) {
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
			if got := assignHash(multilevelKWay(adj, nparts)); got != tc.want[i] {
				t.Errorf("%d nodes (%d vertices), %d parts: assignment hash %s, want %s",
					tc.nodes, len(adj), nparts, got, tc.want[i])
			}
		}
	}
	// Below KWay's multilevel threshold (240 vertices): the direct
	// partitioner, and the pipeline with no coarsening level (toCSR alone).
	adj := mesh.Rotor(8, 6, 5).NodeAdjacency()
	if got, want := assignHash(KWay(adj, 4)), "b46e66f1f0f0b2b6"; got != want {
		t.Errorf("KWay below threshold: assignment hash %s, want %s", got, want)
	}
	if got, want := assignHash(multilevelKWay(adj, 4)), "93809474cef0c0a7"; got != want {
		t.Errorf("multilevelKWay below threshold: assignment hash %s, want %s", got, want)
	}
}
