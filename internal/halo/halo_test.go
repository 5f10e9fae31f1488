package halo

import (
	"slices"
	"testing"
	"testing/quick"

	"op2ca/internal/core"
	"op2ca/internal/mesh"
	"op2ca/internal/partition"
)

// buildQuadProgram declares the Figure 1 style program: nodes, edges, cells,
// e2n, e2c and one dat per set.
func buildQuadProgram(nx, ny int) (*core.Program, *core.Set) {
	m := mesh.NewQuad2D(nx, ny)
	p := core.NewProgram()
	nodes := p.DeclSet(m.NNodes, "nodes")
	edges := p.DeclSet(m.NEdges, "edges")
	cells := p.DeclSet(m.NCells, "cells")
	p.DeclMap(edges, nodes, 2, m.EdgeNodes, "e2n")
	p.DeclMap(edges, cells, 2, m.EdgeCells, "e2c")
	p.DeclDat(nodes, 2, nil, "res")
	p.DeclDat(cells, 4, nil, "cw")
	p.DeclDat(edges, 1, nil, "ew")
	return p, nodes
}

func TestDeriveOwnership(t *testing.T) {
	p, nodes := buildQuadProgram(3, 3)
	assign := partition.Block(nodes.Size, 4)
	owners, err := DeriveOwnership(p, nodes, assign)
	if err != nil {
		t.Fatal(err)
	}
	if len(owners) != len(p.Sets) {
		t.Fatalf("owners for %d sets, want %d", len(owners), len(p.Sets))
	}
	edges := p.SetByName("edges")
	e2n := p.MapByName("e2n")
	for e := 0; e < edges.Size; e++ {
		if owners[edges.ID][e] != assign[e2n.Values[e*2]] {
			t.Fatalf("edge %d owner %d, want owner of first node %d",
				e, owners[edges.ID][e], assign[e2n.Values[e*2]])
		}
	}
	// cells reachable via e2c from edges? e2c is edges->cells so cells
	// inherit only if some map FROM cells exists... they inherit through
	// being a To set? No: ownership flows From <- To. Cells have no
	// outgoing map, so they must fail unless a map from cells exists.
	_ = owners
}

func TestDeriveOwnershipUnreachable(t *testing.T) {
	p := core.NewProgram()
	nodes := p.DeclSet(4, "nodes")
	p.DeclSet(3, "orphans")
	_, err := DeriveOwnership(p, nodes, []int32{0, 0, 1, 1})
	if err == nil {
		t.Fatal("expected error for set with no map path to primary")
	}
	if _, err := DeriveOwnership(p, nodes, []int32{0}); err == nil {
		t.Fatal("expected error for wrong owner count")
	}
}

func TestDeriveOwnershipTransitive(t *testing.T) {
	// chains: bedges -> edges -> nodes.
	p := core.NewProgram()
	nodes := p.DeclSet(4, "nodes")
	edges := p.DeclSet(3, "edges")
	bedges := p.DeclSet(2, "bedges")
	p.DeclMap(edges, nodes, 2, []int32{0, 1, 1, 2, 2, 3}, "e2n")
	p.DeclMap(bedges, edges, 1, []int32{0, 2}, "b2e")
	owners, err := DeriveOwnership(p, nodes, []int32{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1}
	for b, o := range owners[bedges.ID] {
		if o != want[b] {
			t.Errorf("bedge %d owner %d, want %d", b, o, want[b])
		}
	}
}

func TestReverseMap(t *testing.T) {
	p := core.NewProgram()
	nodes := p.DeclSet(3, "nodes")
	edges := p.DeclSet(3, "edges")
	m := p.DeclMap(edges, nodes, 2, []int32{0, 1, 1, 2, 2, 0}, "e2n")
	rm := buildReverse(m, make([]int32, nodes.Size+1), make([]int32, len(m.Values)))
	for n := 0; n < nodes.Size; n++ {
		src := rm.sourcesOf(int32(n))
		if len(src) != 2 {
			t.Fatalf("node %d has %d sources, want 2", n, len(src))
		}
		for _, e := range src {
			row := m.Targets(int(e))
			if row[0] != int32(n) && row[1] != int32(n) {
				t.Fatalf("reverse map wrong: edge %d does not reference node %d", e, n)
			}
		}
	}
}

// bruteShells recomputes, from the definitions, the execute and non-execute
// shells of one rank, as sets keyed by (setID, element).
func bruteShells(p *core.Program, owners [][]int32, rank int32, depth int) (exec, nonexec []map[selem]int) {
	exec = make([]map[selem]int, 1)
	in := make(map[selem]int) // closure membership: shell number (0=owned)
	for s, set := range p.Sets {
		for e := 0; e < set.Size; e++ {
			if owners[s][e] == rank {
				in[selem{int32(s), int32(e)}] = 0
			}
		}
	}
	execShells := make([]map[selem]int, depth+1)
	nonexecShells := make([]map[selem]int, depth+1)
	for d := 1; d <= depth; d++ {
		execShells[d] = map[selem]int{}
		nonexecShells[d] = map[selem]int{}
		// exec_d: foreign unseen elements with a forward entry into the
		// closure (owned + all previous shells, exec and nonexec).
		for _, m := range p.Maps {
			for e := 0; e < m.From.Size; e++ {
				k := selem{int32(m.From.ID), int32(e)}
				if _, seen := in[k]; seen {
					continue
				}
				for _, t := range m.Targets(e) {
					if _, ok := in[selem{int32(m.To.ID), t}]; ok {
						execShells[d][k] = d
						break
					}
				}
			}
		}
		for k := range execShells[d] {
			in[k] = d
		}
		// nonexec_d: unseen targets of exec_d (and of owned for d == 1).
		addTargets := func(k selem) {
			for _, m := range p.Maps {
				if int32(m.From.ID) != k.set {
					continue
				}
				for _, t := range m.Targets(int(k.elem)) {
					tk := selem{int32(m.To.ID), t}
					if _, ok := in[tk]; !ok {
						nonexecShells[d][tk] = d
					}
				}
			}
		}
		for k := range execShells[d] {
			addTargets(k)
		}
		if d == 1 {
			for k, sh := range in {
				if sh == 0 {
					addTargets(k)
				}
			}
		}
		for k := range nonexecShells[d] {
			in[k] = d
		}
	}
	// Flatten to the return shape.
	ex := make(map[selem]int)
	ne := make(map[selem]int)
	for d := 1; d <= depth; d++ {
		for k := range execShells[d] {
			ex[k] = d
		}
		for k := range nonexecShells[d] {
			ne[k] = d
		}
	}
	return []map[selem]int{ex}, []map[selem]int{ne}
}

// checkLayouts verifies structural invariants of every rank's layout and
// compares shells against the brute-force reference.
func checkLayouts(t *testing.T, p *core.Program, primary *core.Set, assign []int32, nparts, depth, chain int) {
	t.Helper()
	owners, err := DeriveOwnership(p, primary, assign)
	if err != nil {
		t.Fatal(err)
	}
	layouts := Build(p, owners, nparts, depth, chain)
	if len(layouts) != nparts {
		t.Fatalf("got %d layouts, want %d", len(layouts), nparts)
	}

	// Owned coverage: each global element owned exactly once.
	for s, set := range p.Sets {
		seen := make([]int, set.Size)
		for _, l := range layouts {
			sl := &l.Sets[s]
			for loc := 0; loc < sl.NOwned; loc++ {
				seen[sl.L2G()[loc]]++
			}
		}
		for e, c := range seen {
			if c != 1 {
				t.Fatalf("set %s element %d owned by %d ranks", set.Name, e, c)
			}
		}
	}

	// The owner-local table fillExports reads agrees with a brute-force
	// inverse of every owner's L2G.
	b := newBuilder(p, owners, nparts, depth, chain)
	b.st = made{}
	b.layouts()
	ownerLocal := b.ownerLocal
	for s, set := range p.Sets {
		for g := 0; g < set.Size; g++ {
			sl := &layouts[owners[s][g]].Sets[s]
			if loc := slices.Index(sl.L2G()[:sl.NOwned], int32(g)); loc < 0 || ownerLocal[s][g] != int32(loc) {
				t.Fatalf("set %s element %d: owner-local table says %d, rank %d stores it at %d",
					set.Name, g, ownerLocal[s][g], owners[s][g], loc)
			}
		}
	}

	for _, l := range layouts {
		exRef, neRef := bruteShells(p, owners, int32(l.Rank), depth)
		for s, set := range p.Sets {
			sl := &l.Sets[s]
			l2g, order := sl.L2G(), sl.ExecOrder()
			if len(l2g) != sl.Total() {
				t.Fatalf("rank %d set %s: L2G len %d != Total %d", l.Rank, set.Name, len(l2g), sl.Total())
			}
			// Injectivity: no global element appears twice in a local view.
			g2l := map[int32]int{}
			for loc, g := range l2g {
				if first, dup := g2l[g]; dup {
					t.Fatalf("rank %d set %s: element %d at locals %d and %d", l.Rank, set.Name, g, first, loc)
				}
				g2l[g] = loc
			}
			// ExecOrder: the executable region, each local once, by
			// strictly ascending global id.
			if len(order) != sl.ExecEnd(depth) {
				t.Fatalf("rank %d set %s: ExecOrder lists %d locals, executable region has %d",
					l.Rank, set.Name, len(order), sl.ExecEnd(depth))
			}
			for i, loc := range order {
				if int(loc) >= sl.ExecEnd(depth) || i > 0 && l2g[loc] <= l2g[order[i-1]] {
					t.Fatalf("rank %d set %s: ExecOrder[%d] = local %d breaks ascending global order", l.Rank, set.Name, i, loc)
				}
			}
			// Owned prefix really owned; shells match brute force.
			for loc := 0; loc < sl.NOwned; loc++ {
				if owners[s][l2g[loc]] != int32(l.Rank) {
					t.Fatalf("rank %d set %s: local %d not owned", l.Rank, set.Name, loc)
				}
			}
			gotExec := map[selem]int{}
			for d := 1; d <= depth; d++ {
				for loc := sl.ExecEnd(d - 1); loc < sl.ExecEnd(d); loc++ {
					gotExec[selem{int32(s), l2g[loc]}] = d
				}
			}
			gotNonexec := map[selem]int{}
			for d := 1; d <= depth; d++ {
				for loc := sl.NonexecEnd(d - 1); loc < sl.NonexecEnd(d); loc++ {
					gotNonexec[selem{int32(s), l2g[loc]}] = d
				}
			}
			for k, d := range exRef[0] {
				if k.set != int32(s) {
					continue
				}
				if gotExec[k] != d {
					t.Fatalf("rank %d set %s: exec shell of element %d = %d, brute force says %d",
						l.Rank, set.Name, k.elem, gotExec[k], d)
				}
			}
			for k := range gotExec {
				if exRef[0][k] != gotExec[k] {
					t.Fatalf("rank %d set %s: spurious exec element %d", l.Rank, set.Name, k.elem)
				}
			}
			for k, d := range neRef[0] {
				if k.set != int32(s) {
					continue
				}
				if gotNonexec[k] != d {
					t.Fatalf("rank %d set %s: nonexec shell of element %d = %d, brute force says %d",
						l.Rank, set.Name, k.elem, gotNonexec[k], d)
				}
			}
			for k := range gotNonexec {
				if neRef[0][k] != gotNonexec[k] {
					t.Fatalf("rank %d set %s: spurious nonexec element %d", l.Rank, set.Name, k.elem)
				}
			}
			// Core prefix: level-0 core elements have all-owned targets.
			for _, m := range p.Maps {
				if m.From.ID != s {
					continue
				}
				for loc := 0; loc < sl.CorePrefix(0); loc++ {
					g := l2g[loc]
					for _, tg := range m.Targets(int(g)) {
						if owners[m.To.ID][tg] != int32(l.Rank) {
							t.Fatalf("rank %d: core element %d of %s has foreign target", l.Rank, g, set.Name)
						}
					}
				}
			}
			// Core prefixes shrink with chain level.
			for lev := 1; lev < chain; lev++ {
				if sl.CorePrefix(lev) > sl.CorePrefix(lev-1) {
					t.Fatalf("rank %d set %s: core prefix grows with level", l.Rank, set.Name)
				}
			}
		}

		// Localized maps: executable rows fully resolved.
		for _, m := range p.Maps {
			from, to := l.SetL(m.From), l.SetL(m.To)
			vals := l.MapL(m)
			for loc := 0; loc < from.ExecEnd(depth); loc++ {
				for a := 0; a < m.Arity; a++ {
					tl := vals[loc*m.Arity+a]
					if tl < 0 {
						t.Fatalf("rank %d map %s: executable row %d slot %d unresolved",
							l.Rank, m.Name, loc, a)
					}
					// Localized value must agree with the global map.
					if to.L2G()[tl] != m.Values[int(from.L2G()[loc])*m.Arity+a] {
						t.Fatalf("rank %d map %s: wrong localization at row %d", l.Rank, m.Name, loc)
					}
				}
			}
		}
	}

	// Import/export mirror consistency.
	for _, l := range layouts {
		for s := range p.Sets {
			for d := 1; d <= depth; d++ {
				for _, k := range []Kind{Exec, Nonexec} {
					checkMirror(t, layouts, s, l.Rank, k, d)
				}
			}
		}
	}
}

// checkMirror checks that every import range of rank's set s, kind k,
// shell d is one export list of its owner, element for element.
func checkMirror(t *testing.T, layouts []*Layout, s, rank int, k Kind, d int) {
	t.Helper()
	sl := &layouts[rank].Sets[s]
	for _, r := range sl.Imports(k, d) {
		src := layouts[r.Rank]
		var match *Range
		for _, ex := range src.Sets[s].Exports(k, d) {
			if ex.Rank == int32(rank) {
				match = &ex
				break
			}
		}
		if match == nil {
			t.Fatalf("rank %d imports from %d but %d has no matching export", rank, r.Rank, r.Rank)
		}
		if match.Count != r.Count {
			t.Fatalf("export count %d != import count %d", match.Count, r.Count)
		}
		locals := src.ExportLocals()[match.Start:][:match.Count]
		for i := int32(0); i < r.Count; i++ {
			if src.Sets[s].L2G()[locals[i]] != sl.L2G()[r.Start+i] {
				t.Fatalf("export order mismatch between ranks %d and %d", rank, r.Rank)
			}
		}
	}
}

func TestBuildQuadBlock(t *testing.T) {
	p, nodes := buildQuadProgram(6, 5)
	// cells need ownership: give them a map to nodes (c2n) so they can
	// inherit; rebuild the program with c2n included.
	m := mesh.NewQuad2D(6, 5)
	p2 := core.NewProgram()
	n2 := p2.DeclSet(m.NNodes, "nodes")
	e2 := p2.DeclSet(m.NEdges, "edges")
	c2 := p2.DeclSet(m.NCells, "cells")
	p2.DeclMap(e2, n2, 2, m.EdgeNodes, "e2n")
	p2.DeclMap(e2, c2, 2, m.EdgeCells, "e2c")
	p2.DeclMap(c2, n2, 4, m.CellNodes, "c2n")
	p2.DeclDat(n2, 2, nil, "res")
	_ = p
	_ = nodes
	for _, nparts := range []int{1, 2, 4} {
		for _, depth := range []int{1, 2, 3} {
			assign := partition.Block(n2.Size, nparts)
			checkLayouts(t, p2, n2, assign, nparts, depth, 4)
		}
	}
}

func TestBuildRotorKWay(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	p := core.NewProgram()
	nodes := p.DeclSet(m.NNodes, "nodes")
	edges := p.DeclSet(m.NEdges, "edges")
	bedges := p.DeclSet(m.NBedges, "bedges")
	pedges := p.DeclSet(m.NPedges, "pedges")
	p.DeclMap(edges, nodes, 2, m.EdgeNodes, "e2n")
	p.DeclMap(bedges, nodes, 1, m.BedgeNodes, "b2n")
	p.DeclMap(pedges, nodes, 2, m.PedgeNodes, "p2n")
	p.DeclDat(nodes, 5, nil, "q")
	p.DeclDat(edges, 3, nil, "w")
	assign := partition.KWay(m.NodeAdjacency(), 4)
	checkLayouts(t, p, nodes, assign, 4, 2, 3)
}

func TestBuildSingleRank(t *testing.T) {
	m := mesh.Rotor(4, 3, 3)
	p := core.NewProgram()
	nodes := p.DeclSet(m.NNodes, "nodes")
	edges := p.DeclSet(m.NEdges, "edges")
	p.DeclMap(edges, nodes, 2, m.EdgeNodes, "e2n")
	owners, err := DeriveOwnership(p, nodes, make([]int32, m.NNodes))
	if err != nil {
		t.Fatal(err)
	}
	layouts := Build(p, owners, 1, 2, 4)
	l := layouts[0]
	for s, set := range p.Sets {
		sl := &l.Sets[s]
		if sl.NOwned != set.Size || sl.Total() != set.Size {
			t.Fatalf("single rank set %s: owned %d total %d, want %d", set.Name, sl.NOwned, sl.Total(), set.Size)
		}
		if sl.CorePrefix(0) != set.Size {
			t.Fatalf("single rank: core prefix %d, want %d", sl.CorePrefix(0), set.Size)
		}
	}
	if len(l.Neighbours()) != 0 {
		t.Fatalf("single rank has neighbours %v", l.Neighbours())
	}
}

func TestBuildPanics(t *testing.T) {
	p := core.NewProgram()
	nodes := p.DeclSet(4, "nodes")
	owners := [][]int32{{0, 0, 1, 1}}
	for name, f := range map[string]func(){
		"bad depth": func() { Build(p, owners, 2, 0, 1) },
		"bad chain": func() { Build(p, owners, 2, 1, 0) },
		"bad sets":  func() { Build(p, [][]int32{}, 2, 1, 1) },
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
	_ = nodes
}

// Property: layouts on random rotor meshes with random partitions satisfy
// all structural invariants (via checkLayouts, which includes the brute-
// force shell comparison).
func TestBuildProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	f := func(ni8, nj8, nk8, parts8, depth8, seed8 uint8) bool {
		ni, nj, nk := int(ni8%4)+2, int(nj8%4)+2, int(nk8%3)+3
		m := mesh.Rotor(ni, nj, nk)
		nparts := int(parts8%5) + 1
		if nparts > m.NNodes {
			nparts = m.NNodes
		}
		depth := int(depth8%3) + 1
		p := core.NewProgram()
		nodes := p.DeclSet(m.NNodes, "nodes")
		edges := p.DeclSet(m.NEdges, "edges")
		pedges := p.DeclSet(m.NPedges, "pedges")
		p.DeclMap(edges, nodes, 2, m.EdgeNodes, "e2n")
		p.DeclMap(pedges, nodes, 2, m.PedgeNodes, "p2n")
		assign := partition.Random(m.NNodes, nparts, int64(seed8))
		checkLayouts(t, p, nodes, assign, nparts, depth, 3)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
