package halo

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"op2ca/internal/core"
	"op2ca/internal/mesh"
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
// captured with the reflection-based sort.Slice calls the typed sorts
// replaced, so any change to an ordering — local numbering, ExecOrder,
// export order — fails here before it can move a checksum or a clock.
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
	for _, tc := range []struct {
		name   string
		assign partition.Assignment
		nparts int
		depth  int
		want   string
	}{
		{"kway4-depth2", partition.KWay(m.NodeAdjacency(), 4), 4, 2, "a079676ede697662"},
		{"random5-depth3", partition.Random(m.NNodes, 5, 11), 5, 3, "a2fdce1b3625e830"},
		{"block3-depth1", partition.Block(m.NNodes, 3), 3, 1, "de7cb475ab01cf3b"},
	} {
		owners, err := DeriveOwnership(p, nodes, tc.assign)
		if err != nil {
			t.Fatal(err)
		}
		if got := layoutHash(Build(p, owners, tc.nparts, tc.depth, 4)); got != tc.want {
			t.Errorf("%s: layout hash %s, want %s", tc.name, got, tc.want)
		}
	}
}
