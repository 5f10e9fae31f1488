package halo

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"op2ca/internal/core"
	"op2ca/internal/hydra"
	"op2ca/internal/mesh"
	"op2ca/internal/mgcfd"
	"op2ca/internal/partition"
)

// layoutHash folds everything Build's sorts decide into one FNV-1a value:
// local numbering (L2G), the canonical ExecOrder, core prefixes, shell
// boundaries, import ranges, export lists, neighbour lists and the localized
// maps, for every rank and set.
func layoutHash(layouts []*Layout) string {
	h := fnv.New64a()
	put := func(vs ...int32) {
		var buf [4]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint32(buf[:], uint32(v))
			h.Write(buf[:])
		}
	}
	for _, l := range layouts {
		put(int32(l.Rank))
		put(l.Neighbours...)
		for _, sl := range l.Sets {
			put(int32(sl.NOwned))
			put(sl.L2G...)
			put(sl.ExecOrder...)
			put(sl.corePrefix...)
			put(sl.ExecStart...)
			put(sl.NonexecStart...)
			for _, imports := range [][][]ImportRange{sl.ImportExec, sl.ImportNonexec} {
				for _, shell := range imports {
					for _, r := range shell {
						put(r.Rank, r.Start, r.Count)
					}
				}
			}
			for _, exports := range [][][]ExportList{sl.ExportExec, sl.ExportNonexec} {
				for _, shell := range exports {
					for _, e := range shell {
						put(e.Rank)
						put(e.Locals...)
					}
				}
			}
		}
		for _, m := range l.Maps {
			put(m...)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestBuildGolden pins Build's output byte for byte: the hashes were
// captured from the implementation that ordered everything with comparison
// sorts and localized through per-rank hash maps, so any change to an
// ordering — local numbering, ExecOrder, export order — fails here before it
// can move a checksum or a clock. Beyond the small three-set program, the
// cases are the shapes the benchmark builds: 64 ranks on a 2-level MG-CFD
// program (shells larger than the owned region), and Hydra's multi-set
// program under RIB at the depths its chains use.
func TestBuildGolden(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	p := core.NewProgram()
	nodes := p.DeclSet(m.NNodes, "nodes")
	edges := p.DeclSet(m.NEdges, "edges")
	bedges := p.DeclSet(m.NBedges, "bedges")
	pedges := p.DeclSet(m.NPedges, "pedges")
	p.DeclMap(edges, nodes, 2, m.EdgeNodes, "e2n")
	p.DeclMap(bedges, nodes, 1, m.BedgeNodes, "b2n")
	p.DeclMap(pedges, nodes, 2, m.PedgeNodes, "p2n")

	mgMesh := mesh.RotorForNodes(6000)
	mg := mgcfd.New(mesh.NewHierarchy(mgMesh, 2, true))
	hyMesh := mesh.RotorForNodes(4200)
	hy := hydra.New(hyMesh)
	hyAssign := partition.RIB(hyMesh.Coords, 3, 8)

	for _, tc := range []struct {
		name     string
		prog     *core.Program
		primary  *core.Set
		assign   partition.Assignment
		nparts   int
		depth    int
		maxChain int
		want     string
	}{
		{"kway4-depth2", p, nodes, partition.KWay(m.NodeAdjacency(), 4), 4, 2, 4, "a079676ede697662"},
		{"random5-depth3", p, nodes, partition.Random(m.NNodes, 5, 11), 5, 3, 4, "a2fdce1b3625e830"},
		{"block3-depth1", p, nodes, partition.Block(m.NNodes, 3), 3, 1, 4, "de7cb475ab01cf3b"},
		{"mgcfd-kway64-depth2", mg.Prog, mg.Primary, partition.KWay(mgMesh.NodeAdjacency(), 64), 64, 2, 2, "48ec9bc2314a3247"},
		{"hydra-rib8-depth2", hy.Prog, hy.Nodes, hyAssign, 8, 2, 6, "67385c084e870949"},
		{"hydra-rib8-depth4", hy.Prog, hy.Nodes, hyAssign, 8, 4, 6, "b6204dde541796de"},
	} {
		owners, err := DeriveOwnership(tc.prog, tc.primary, tc.assign)
		if err != nil {
			t.Fatal(err)
		}
		if got := layoutHash(Build(tc.prog, owners, tc.nparts, tc.depth, tc.maxChain)); got != tc.want {
			t.Errorf("%s: layout hash %s, want %s", tc.name, got, tc.want)
		}
	}
}
