package mesh

import (
	"fmt"
	"math"
)

// Boundary group identifiers for FV3D boundary faces.
const (
	BndInflow = iota
	BndOutflow
	BndHub
	BndCasing
	BndSideLo
	BndSideHi
)

// FV3D is a node-centred finite-volume mesh: the dual of a structured
// curvilinear hex grid. Edges connect pairs of adjacent nodes and carry the
// dual-face area vector between their control volumes, the structure used by
// MG-CFD and Hydra. Boundary faces (bedges) close control volumes on solid
// or flow boundaries; periodic edges (pedges) pair matching nodes across the
// circumferential periodic faces of rotor meshes.
type FV3D struct {
	// Structured generator dimensions (informational).
	NI, NJ, NK int

	NNodes int
	// Coords holds 3 coordinates per node.
	Coords []float64
	// Volumes holds the control volume of each node.
	Volumes []float64

	NEdges int
	// EdgeNodes holds the e2n map, 2 node indices per edge.
	EdgeNodes []int32
	// EdgeWeights holds the dual-face area vector, 3 values per edge,
	// oriented from EdgeNodes[2e] to EdgeNodes[2e+1].
	EdgeWeights []float64

	NBedges int
	// BedgeNodes holds the b2n map, 1 node index per boundary face.
	BedgeNodes []int32
	// BedgeWeights holds the outward area vector, 3 values per face.
	BedgeWeights []float64
	// BedgeGroups holds the Bnd* group of each boundary face.
	BedgeGroups []int32

	NPedges int
	// PedgeNodes holds the p2n map, 2 node indices per periodic pair
	// (the node on the low side, then its match on the high side).
	PedgeNodes []int32

	NCbnd int
	// CbndNodes holds the cb2n map, 1 node index per centreline-boundary
	// face (the hub patch nearest the inflow), a small subset used by the
	// Hydra proxy's centreline loops.
	CbndNodes []int32
}

// nodeIndex returns the node id of structured coordinates (i,j,k).
func (m *FV3D) nodeIndex(i, j, k int) int32 {
	return int32((i*m.NJ+j)*m.NK + k)
}

// geometry maps structured coordinates to physical space.
type geometry interface {
	point(i, j, k int) (x, y, z float64)
	// periodicK reports whether the k direction wraps periodically
	// (rotor passage) rather than ending in solid boundaries (box).
	periodicK() bool
}

// boxGeom is a rectilinear unit-spacing box.
type boxGeom struct{}

func (boxGeom) point(i, j, k int) (float64, float64, float64) {
	return float64(i), float64(j), float64(k)
}
func (boxGeom) periodicK() bool { return false }

// rotorGeom is an annular sector: i axial, j radial, k circumferential,
// with a mild axial twist to mimic a blade passage.
type rotorGeom struct {
	ni, nj, nk             int
	length, rHub, rTip     float64
	sectorRadians, twistAt float64
}

func (g rotorGeom) point(i, j, k int) (float64, float64, float64) {
	fi := float64(i) / float64(maxInt(g.ni-1, 1))
	fj := float64(j) / float64(maxInt(g.nj-1, 1))
	fk := float64(k) / float64(maxInt(g.nk-1, 1))
	x := fi * g.length
	r := g.rHub + fj*(g.rTip-g.rHub)
	theta := fk*g.sectorRadians + fi*g.twistAt
	return x, r * math.Cos(theta), r * math.Sin(theta)
}
func (rotorGeom) periodicK() bool { return true }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Box generates a rectilinear finite-volume mesh with ni*nj*nk nodes.
// All six faces are boundary patches.
func Box(ni, nj, nk int) *FV3D {
	return generateFV3D(ni, nj, nk, boxGeom{})
}

// Rotor generates a rotor-like annular-sector finite-volume mesh with
// ni*nj*nk nodes. The k faces are periodic (pedges); inflow, outflow, hub
// and casing are boundary patches; the hub patch nearest the inflow forms
// the centreline-boundary set.
func Rotor(ni, nj, nk int) *FV3D {
	g := rotorGeom{
		ni: ni, nj: nj, nk: nk,
		length: 1.0, rHub: 0.5, rTip: 1.0,
		sectorRadians: 2 * math.Pi / 36, twistAt: 0.3,
	}
	return generateFV3D(ni, nj, nk, g)
}

// RotorForNodes generates a Rotor mesh with approximately n nodes, keeping
// the paper meshes' roughly 4:3:2 axial:radial:circumferential aspect.
func RotorForNodes(n int) *FV3D {
	if n < 8 {
		n = 8
	}
	// ni:nj:nk = 4:3:2 => ni*nj*nk = 24 c^3.
	c := math.Cbrt(float64(n) / 24.0)
	ni := maxInt(2, int(math.Round(4*c)))
	nj := maxInt(2, int(math.Round(3*c)))
	nk := maxInt(3, int(math.Round(2*c)))
	return Rotor(ni, nj, nk)
}

func generateFV3D(ni, nj, nk int, g geometry) *FV3D {
	if ni < 2 || nj < 2 || nk < 2 {
		panic(fmt.Sprintf("mesh: FV3D dimensions %dx%dx%d too small (need >= 2)", ni, nj, nk))
	}
	m := &FV3D{NI: ni, NJ: nj, NK: nk, NNodes: ni * nj * nk}
	m.Coords = make([]float64, 3*m.NNodes)
	m.Volumes = make([]float64, m.NNodes)
	// Every count below is a closed form of the dimensions — the bounds of
	// the loops that fill the arrays — so each array is made once, at the
	// capacity it ends with.
	nEdges := (ni-1)*nj*nk + ni*(nj-1)*nk + ni*nj*(nk-1)
	nBedges := 2 * (nj*nk + ni*nk)
	if !g.periodicK() {
		nBedges += 2 * ni * nj
	}
	m.EdgeNodes = make([]int32, 0, 2*nEdges)
	m.EdgeWeights = make([]float64, 0, 3*nEdges)
	m.BedgeNodes = make([]int32, 0, nBedges)
	m.BedgeWeights = make([]float64, 0, 3*nBedges)
	m.BedgeGroups = make([]int32, 0, nBedges)

	for i := 0; i < ni; i++ {
		for j := 0; j < nj; j++ {
			for k := 0; k < nk; k++ {
				n := m.nodeIndex(i, j, k)
				x, y, z := g.point(i, j, k)
				m.Coords[3*n] = x
				m.Coords[3*n+1] = y
				m.Coords[3*n+2] = z
			}
		}
	}

	// spacing returns the local grid spacing of node (i,j,k) along axis.
	spacing := func(i, j, k, axis int) float64 {
		var lo, hi int32
		switch axis {
		case 0:
			lo, hi = m.nodeIndex(maxInt(i-1, 0), j, k), m.nodeIndex(minInt(i+1, ni-1), j, k)
		case 1:
			lo, hi = m.nodeIndex(i, maxInt(j-1, 0), k), m.nodeIndex(i, minInt(j+1, nj-1), k)
		default:
			lo, hi = m.nodeIndex(i, j, maxInt(k-1, 0)), m.nodeIndex(i, j, minInt(k+1, nk-1))
		}
		dx := m.Coords[3*hi] - m.Coords[3*lo]
		dy := m.Coords[3*hi+1] - m.Coords[3*lo+1]
		dz := m.Coords[3*hi+2] - m.Coords[3*lo+2]
		d := math.Sqrt(dx*dx+dy*dy+dz*dz) / 2
		if d == 0 {
			d = 1e-12
		}
		return d
	}

	addEdge := func(a, b int32, area float64, axis int) {
		m.EdgeNodes = append(m.EdgeNodes, a, b)
		dx := m.Coords[3*b] - m.Coords[3*a]
		dy := m.Coords[3*b+1] - m.Coords[3*a+1]
		dz := m.Coords[3*b+2] - m.Coords[3*a+2]
		norm := math.Sqrt(dx*dx + dy*dy + dz*dz)
		if norm == 0 {
			norm = 1
		}
		m.EdgeWeights = append(m.EdgeWeights, area*dx/norm, area*dy/norm, area*dz/norm)
		_ = axis
	}

	for i := 0; i < ni; i++ {
		for j := 0; j < nj; j++ {
			for k := 0; k < nk; k++ {
				n := m.nodeIndex(i, j, k)
				hx, hy, hz := spacing(i, j, k, 0), spacing(i, j, k, 1), spacing(i, j, k, 2)
				m.Volumes[n] = hx * hy * hz
				if i+1 < ni {
					addEdge(n, m.nodeIndex(i+1, j, k), hy*hz, 0)
				}
				if j+1 < nj {
					addEdge(n, m.nodeIndex(i, j+1, k), hx*hz, 1)
				}
				if k+1 < nk {
					addEdge(n, m.nodeIndex(i, j, k+1), hx*hy, 2)
				}
			}
		}
	}
	m.NEdges = len(m.EdgeNodes) / 2

	addBedge := func(n int32, area float64, group int32, sign float64, axis int) {
		m.BedgeNodes = append(m.BedgeNodes, n)
		w := [3]float64{}
		w[axis] = sign * area
		m.BedgeWeights = append(m.BedgeWeights, w[0], w[1], w[2])
		m.BedgeGroups = append(m.BedgeGroups, group)
	}

	for j := 0; j < nj; j++ {
		for k := 0; k < nk; k++ {
			hy := spacing(0, j, k, 1)
			hz := spacing(0, j, k, 2)
			addBedge(m.nodeIndex(0, j, k), hy*hz, BndInflow, -1, 0)
			hy = spacing(ni-1, j, k, 1)
			hz = spacing(ni-1, j, k, 2)
			addBedge(m.nodeIndex(ni-1, j, k), hy*hz, BndOutflow, +1, 0)
		}
	}
	for i := 0; i < ni; i++ {
		for k := 0; k < nk; k++ {
			hx := spacing(i, 0, k, 0)
			hz := spacing(i, 0, k, 2)
			addBedge(m.nodeIndex(i, 0, k), hx*hz, BndHub, -1, 1)
			hx = spacing(i, nj-1, k, 0)
			hz = spacing(i, nj-1, k, 2)
			addBedge(m.nodeIndex(i, nj-1, k), hx*hz, BndCasing, +1, 1)
		}
	}
	if g.periodicK() {
		m.PedgeNodes = make([]int32, 0, 2*ni*nj)
		for i := 0; i < ni; i++ {
			for j := 0; j < nj; j++ {
				m.PedgeNodes = append(m.PedgeNodes,
					m.nodeIndex(i, j, 0), m.nodeIndex(i, j, nk-1))
			}
		}
		m.NPedges = len(m.PedgeNodes) / 2
	} else {
		for i := 0; i < ni; i++ {
			for j := 0; j < nj; j++ {
				hx := spacing(i, j, 0, 0)
				hy := spacing(i, j, 0, 1)
				addBedge(m.nodeIndex(i, j, 0), hx*hy, BndSideLo, -1, 2)
				hx = spacing(i, j, nk-1, 0)
				hy = spacing(i, j, nk-1, 1)
				addBedge(m.nodeIndex(i, j, nk-1), hx*hy, BndSideHi, +1, 2)
			}
		}
	}
	m.NBedges = len(m.BedgeNodes)

	// Centreline boundary: the hub patch nearest the inflow (first eighth
	// of the axial extent, at least one station).
	ci := maxInt(1, ni/8)
	m.CbndNodes = make([]int32, 0, ci*nk)
	for i := 0; i < ci; i++ {
		for k := 0; k < nk; k++ {
			m.CbndNodes = append(m.CbndNodes, m.nodeIndex(i, 0, k))
		}
	}
	m.NCbnd = len(m.CbndNodes)
	return m
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// NodeAdjacency returns, for every node, the list of neighbouring nodes
// connected by an edge or a periodic pair: the graph used for partitioning.
func (m *FV3D) NodeAdjacency() [][]int32 {
	adj := make([][]int32, m.NNodes)
	deg := make([]int, m.NNodes)
	for e := 0; e < m.NEdges; e++ {
		deg[m.EdgeNodes[2*e]]++
		deg[m.EdgeNodes[2*e+1]]++
	}
	for p := 0; p < m.NPedges; p++ {
		deg[m.PedgeNodes[2*p]]++
		deg[m.PedgeNodes[2*p+1]]++
	}
	for n := range adj {
		adj[n] = make([]int32, 0, deg[n])
	}
	for e := 0; e < m.NEdges; e++ {
		a, b := m.EdgeNodes[2*e], m.EdgeNodes[2*e+1]
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for p := 0; p < m.NPedges; p++ {
		a, b := m.PedgeNodes[2*p], m.PedgeNodes[2*p+1]
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	return adj
}
