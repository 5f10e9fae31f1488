package partition

import (
	"slices"
	"testing"
	"testing/quick"

	"op2ca/internal/mesh"
)

func checkValid(t *testing.T, a Assignment, n, nparts int) {
	t.Helper()
	if len(a) != n {
		t.Fatalf("assignment length %d, want %d", len(a), n)
	}
	sizes := a.PartSizes(nparts)
	for p, s := range sizes {
		if s == 0 {
			t.Errorf("part %d is empty", p)
		}
	}
	for i, p := range a {
		if p < 0 || int(p) >= nparts {
			t.Fatalf("element %d assigned to invalid part %d", i, p)
		}
	}
}

func TestBlock(t *testing.T) {
	a := Block(10, 3)
	checkValid(t, a, 10, 3)
	if parts := slices.Max(a) + 1; parts != 3 {
		t.Errorf("%d parts, want 3", parts)
	}
	// Monotone non-decreasing part ids.
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("block partition not contiguous")
		}
	}
	sizes := a.PartSizes(3)
	for _, s := range sizes {
		if s < 3 || s > 4 {
			t.Errorf("block sizes %v not balanced", sizes)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(100, 7, 42)
	b := Random(100, 7, 42)
	checkValid(t, a, 100, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Random not deterministic for equal seeds")
		}
	}
}

func TestArgChecks(t *testing.T) {
	for name, f := range map[string]func(){
		"zero elements":  func() { Block(0, 1) },
		"zero parts":     func() { Block(5, 0) },
		"too many parts": func() { Block(5, 6) },
		"bad coords":     func() { RIB([]float64{1, 2, 3}, 2, 1) },
		"odd edge list":  func() { KWayEdges(4, 2, []int32{0, 1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestKWayOnRotor(t *testing.T) {
	m := mesh.Rotor(12, 9, 8)
	adj := m.NodeAdjacency()
	for _, nparts := range []int{2, 4, 7, 16} {
		a := KWay(adj, nparts)
		checkValid(t, a, m.NNodes, nparts)
		q := Evaluate(adj, a, nparts)
		if q.Imbalance > 1.25 {
			t.Errorf("nparts=%d imbalance %.3f > 1.25", nparts, q.Imbalance)
		}
		// The cut must beat a random partition by a wide margin.
		r := Evaluate(adj, Random(m.NNodes, nparts, 1), nparts)
		if q.EdgeCut >= r.EdgeCut/2 {
			t.Errorf("nparts=%d k-way cut %d not clearly better than random cut %d",
				nparts, q.EdgeCut, r.EdgeCut)
		}
	}
}

func TestRIBAndRCBOnRotor(t *testing.T) {
	m := mesh.Rotor(12, 9, 8)
	adj := m.NodeAdjacency()
	for _, nparts := range []int{2, 3, 8} {
		for name, a := range map[string]Assignment{
			"RIB": RIB(m.Coords, 3, nparts),
			"RCB": RCB(m.Coords, 3, nparts),
		} {
			checkValid(t, a, m.NNodes, nparts)
			q := Evaluate(adj, a, nparts)
			if q.Imbalance > 1.05 {
				t.Errorf("%s nparts=%d imbalance %.3f > 1.05", name, nparts, q.Imbalance)
			}
			r := Evaluate(adj, Random(m.NNodes, nparts, 1), nparts)
			if nparts > 2 && q.EdgeCut >= r.EdgeCut {
				t.Errorf("%s nparts=%d cut %d not better than random %d", name, nparts, q.EdgeCut, r.EdgeCut)
			}
		}
	}
}

func TestKWaySinglePart(t *testing.T) {
	m := mesh.Box(4, 4, 4)
	a := KWay(m.NodeAdjacency(), 1)
	for _, p := range a {
		if p != 0 {
			t.Fatal("single-part partition must assign everything to 0")
		}
	}
}

func TestKWayDisconnectedGraph(t *testing.T) {
	// Two disconnected vertices plus a path; k-way must still cover them.
	adj := [][]int32{{}, {}, {3}, {2, 4}, {3}}
	a := KWay(adj, 2)
	checkValid(t, a, 5, 2)
}

func TestEvaluateCounts(t *testing.T) {
	// Path 0-1-2-3 split in the middle: cut 1, neighbours 1.
	adj := [][]int32{{1}, {0, 2}, {1, 3}, {2}}
	a := Assignment{0, 0, 1, 1}
	q := Evaluate(adj, a, 2)
	if q.EdgeCut != 1 || q.MaxNeighbours != 1 {
		t.Errorf("got cut=%d neigh=%d, want 1 1", q.EdgeCut, q.MaxNeighbours)
	}
	if q.Imbalance != 1.0 {
		t.Errorf("imbalance = %g, want 1", q.Imbalance)
	}
}

// Property: every partitioner covers all elements with valid ranks and no
// empty parts, over random mesh sizes and part counts.
func TestPartitionersProperty(t *testing.T) {
	f := func(ni8, nj8, nk8, parts8 uint8) bool {
		ni, nj, nk := int(ni8%6)+2, int(nj8%6)+2, int(nk8%6)+3
		m := mesh.Rotor(ni, nj, nk)
		nparts := int(parts8%6) + 1
		if nparts > m.NNodes {
			nparts = m.NNodes
		}
		adj := m.NodeAdjacency()
		for _, a := range []Assignment{
			Block(m.NNodes, nparts),
			KWay(adj, nparts),
			RIB(m.Coords, 3, nparts),
			RCB(m.Coords, 3, nparts),
		} {
			if len(a) != m.NNodes {
				return false
			}
			sizes := a.PartSizes(nparts)
			for _, s := range sizes {
				if s == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
