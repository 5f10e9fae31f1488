package mesh

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestQuad2DCounts(t *testing.T) {
	// Figure 1 of the paper: 2x2 cells => 9 nodes, 12 edges, 4 cells.
	m := NewQuad2D(2, 2)
	if m.NNodes != 9 || m.NEdges != 12 || m.NCells != 4 {
		t.Fatalf("counts = %d nodes %d edges %d cells, want 9 12 4", m.NNodes, m.NEdges, m.NCells)
	}
	if len(m.EdgeNodes) != 2*m.NEdges || len(m.EdgeCells) != 2*m.NEdges {
		t.Fatal("edge map lengths inconsistent")
	}
	if len(m.CellNodes) != 4*m.NCells || len(m.Coords) != 2*m.NNodes {
		t.Fatal("cell map / coords lengths inconsistent")
	}
}

func TestQuad2DInvariants(t *testing.T) {
	f := func(nx8, ny8 uint8) bool {
		nx, ny := int(nx8%7)+1, int(ny8%7)+1
		m := NewQuad2D(nx, ny)
		// Euler-style count: edges = nx*(ny+1) + ny*(nx+1).
		if m.NEdges != nx*(ny+1)+ny*(nx+1) {
			return false
		}
		for i, v := range m.EdgeNodes {
			if v < 0 || int(v) >= m.NNodes {
				t.Logf("edge node %d out of range: %d", i, v)
				return false
			}
		}
		for i, v := range m.EdgeCells {
			if v < 0 || int(v) >= m.NCells {
				t.Logf("edge cell %d out of range: %d", i, v)
				return false
			}
		}
		for i, v := range m.CellNodes {
			if v < 0 || int(v) >= m.NNodes {
				t.Logf("cell node %d out of range: %d", i, v)
				return false
			}
		}
		// Interior edge cell-adjacency count: every cell is adjacent to 4 edges.
		cnt := make([]int, m.NCells)
		for e := 0; e < m.NEdges; e++ {
			a, b := m.EdgeCells[2*e], m.EdgeCells[2*e+1]
			cnt[a]++
			if b != a {
				cnt[b]++
			}
		}
		for c, n := range cnt {
			if n != 4 {
				t.Logf("cell %d has %d adjacent edges, want 4", c, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuad2DPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero dimensions")
		}
	}()
	NewQuad2D(0, 3)
}

func checkFV3D(t *testing.T, m *FV3D, periodic bool) {
	t.Helper()
	ni, nj, nk := m.NI, m.NJ, m.NK
	if m.NNodes != ni*nj*nk {
		t.Fatalf("NNodes = %d, want %d", m.NNodes, ni*nj*nk)
	}
	wantEdges := 3*ni*nj*nk - nj*nk - ni*nk - ni*nj
	if m.NEdges != wantEdges {
		t.Fatalf("NEdges = %d, want %d", m.NEdges, wantEdges)
	}
	if len(m.EdgeNodes) != 2*m.NEdges || len(m.EdgeWeights) != 3*m.NEdges {
		t.Fatal("edge array lengths inconsistent")
	}
	if len(m.Coords) != 3*m.NNodes || len(m.Volumes) != m.NNodes {
		t.Fatal("node array lengths inconsistent")
	}
	for _, v := range m.Volumes {
		if v <= 0 || math.IsNaN(v) {
			t.Fatalf("non-positive volume %g", v)
		}
	}
	for e := 0; e < m.NEdges; e++ {
		a, b := m.EdgeNodes[2*e], m.EdgeNodes[2*e+1]
		if a == b || a < 0 || b < 0 || int(a) >= m.NNodes || int(b) >= m.NNodes {
			t.Fatalf("edge %d bad endpoints %d,%d", e, a, b)
		}
	}
	wantB := 2*nj*nk + 2*ni*nk
	if !periodic {
		wantB += 2 * ni * nj
	}
	if m.NBedges != wantB {
		t.Fatalf("NBedges = %d, want %d", m.NBedges, wantB)
	}
	if len(m.BedgeNodes) != m.NBedges || len(m.BedgeWeights) != 3*m.NBedges ||
		len(m.BedgeGroups) != m.NBedges {
		t.Fatal("bedge array lengths inconsistent")
	}
	if periodic {
		if m.NPedges != ni*nj {
			t.Fatalf("NPedges = %d, want %d", m.NPedges, ni*nj)
		}
		for p := 0; p < m.NPedges; p++ {
			a, b := m.PedgeNodes[2*p], m.PedgeNodes[2*p+1]
			if a == b {
				t.Fatalf("pedge %d pairs node with itself", p)
			}
			// Periodic partners share axial and radial position => same x.
			if math.Abs(m.Coords[3*a]-m.Coords[3*b]) > 1e-12 {
				t.Fatalf("pedge %d partners differ in x", p)
			}
		}
	} else if m.NPedges != 0 {
		t.Fatalf("box mesh has %d pedges, want 0", m.NPedges)
	}
	if m.NCbnd < 1 || m.NCbnd > m.NBedges+m.NNodes {
		t.Fatalf("NCbnd = %d out of range", m.NCbnd)
	}
}

func TestBox(t *testing.T)   { checkFV3D(t, Box(4, 3, 5), false) }
func TestRotor(t *testing.T) { checkFV3D(t, Rotor(6, 5, 4), true) }

func TestRotorForNodes(t *testing.T) {
	for _, n := range []int{100, 5000, 60000} {
		m := RotorForNodes(n)
		got := m.NNodes
		if got < n/3 || got > n*3 {
			t.Errorf("RotorForNodes(%d) produced %d nodes (off by >3x)", n, got)
		}
		checkFV3D(t, m, true)
	}
	if m := RotorForNodes(0); m.NNodes < 8 {
		t.Errorf("tiny request produced %d nodes", m.NNodes)
	}
}

// TestGenerateExactCapacity: the generator makes each array once, at the
// length it ends with, and what it generates has not moved — the hashes are
// of the serialised meshes as the generator built them while it still grew
// the arrays by append (before PR 23); every partition, layout and golden
// output downstream is a function of these bytes.
func TestGenerateExactCapacity(t *testing.T) {
	for _, c := range []struct {
		m    *FV3D
		want string
	}{
		{RotorForNodes(100), "376ef18e16a2b6d2"},
		{RotorForNodes(4200), "0a342fec3a12642b"},
		{RotorForNodes(60000), "87a9306ec7ba53bc"},
		{Box(4, 3, 5), "0991937569497f0f"},
	} {
		m := c.m
		name := fmt.Sprintf("%dx%dx%d", m.NI, m.NJ, m.NK)
		for _, a := range []struct {
			array    string
			len, cap int
		}{
			{"Coords", len(m.Coords), cap(m.Coords)},
			{"Volumes", len(m.Volumes), cap(m.Volumes)},
			{"EdgeNodes", len(m.EdgeNodes), cap(m.EdgeNodes)},
			{"EdgeWeights", len(m.EdgeWeights), cap(m.EdgeWeights)},
			{"BedgeNodes", len(m.BedgeNodes), cap(m.BedgeNodes)},
			{"BedgeWeights", len(m.BedgeWeights), cap(m.BedgeWeights)},
			{"BedgeGroups", len(m.BedgeGroups), cap(m.BedgeGroups)},
			{"PedgeNodes", len(m.PedgeNodes), cap(m.PedgeNodes)},
			{"CbndNodes", len(m.CbndNodes), cap(m.CbndNodes)},
		} {
			if a.len != a.cap {
				t.Errorf("%s: %s has length %d in capacity %d", name, a.array, a.len, a.cap)
			}
		}
		h := sha256.New()
		if err := m.Write(h); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != c.want {
			t.Errorf("%s: serialised mesh hashes to %s, want %s", name, got, c.want)
		}
	}
}

// BenchmarkRotorForNodes generates the served template's mesh (4 200 nodes
// asked for, 22x17x11 built).
func BenchmarkRotorForNodes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RotorForNodes(4200)
	}
}

func TestFV3DPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for too-small dimensions")
		}
	}()
	Box(1, 4, 4)
}

func TestNodeAdjacencySymmetric(t *testing.T) {
	m := Rotor(5, 4, 4)
	adj := m.NodeAdjacency()
	if len(adj) != m.NNodes {
		t.Fatalf("len(adj) = %d, want %d", len(adj), m.NNodes)
	}
	deg := 0
	for n := range adj {
		deg += len(adj[n])
		for _, o := range adj[n] {
			found := false
			for _, back := range adj[o] {
				if int(back) == n {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("adjacency not symmetric: %d->%d", n, o)
			}
		}
	}
	if deg != 2*(m.NEdges+m.NPedges) {
		t.Fatalf("total degree %d, want %d", deg, 2*(m.NEdges+m.NPedges))
	}
}

func TestHierarchy(t *testing.T) {
	fine := Rotor(16, 12, 12)
	h := NewHierarchy(fine, 3, true)
	if len(h.Levels) != 3 {
		t.Fatalf("levels = %d, want 3", len(h.Levels))
	}
	if len(h.FineToCoarse) != 2 {
		t.Fatalf("maps = %d, want 2", len(h.FineToCoarse))
	}
	for l := 0; l < len(h.FineToCoarse); l++ {
		f, c := h.Levels[l], h.Levels[l+1]
		if len(h.FineToCoarse[l]) != f.NNodes {
			t.Fatalf("level %d map has %d entries, want %d", l, len(h.FineToCoarse[l]), f.NNodes)
		}
		seen := make([]bool, c.NNodes)
		for _, v := range h.FineToCoarse[l] {
			if v < 0 || int(v) >= c.NNodes {
				t.Fatalf("level %d map value %d out of range", l, v)
			}
			seen[v] = true
		}
		for n, s := range seen {
			if !s {
				t.Fatalf("coarse node %d at level %d unreferenced (restriction would lose it)", n, l+1)
			}
		}
		if c.NNodes >= f.NNodes {
			t.Fatalf("level %d did not coarsen: %d -> %d nodes", l, f.NNodes, c.NNodes)
		}
	}
}

func TestHierarchyStopsEarly(t *testing.T) {
	h := NewHierarchy(Rotor(2, 2, 3), 5, true)
	if len(h.Levels) != 1 {
		t.Fatalf("tiny mesh coarsened to %d levels, want 1", len(h.Levels))
	}
}
