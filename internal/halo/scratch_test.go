package halo

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"op2ca/internal/core"
	"op2ca/internal/hydra"
	"op2ca/internal/mesh"
	"op2ca/internal/mgcfd"
	"op2ca/internal/partition"
)

// goldenBuild is one of TestBuildGolden's cases, ready to build.
type goldenBuild struct {
	name                    string
	prog                    *core.Program
	owners                  [][]int32
	nparts, depth, maxChain int
	want                    string
}

func (g goldenBuild) build() []*Layout {
	return Build(g.prog, g.owners, g.nparts, g.depth, g.maxChain)
}

// goldenBuilds are TestBuildGolden's cases and the hashes it pins.
func goldenBuilds(t *testing.T) []goldenBuild {
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

	var builds []goldenBuild
	for _, tc := range []struct {
		name                    string
		prog                    *core.Program
		primary                 *core.Set
		assign                  partition.Assignment
		nparts, depth, maxChain int
		want                    string
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
		builds = append(builds, goldenBuild{tc.name, tc.prog, owners, tc.nparts, tc.depth, tc.maxChain, tc.want})
	}
	return builds
}

// TestBuildReusesScratch (run under -race): Build hands its scratch from one
// call to the next, across shapes. TestBuildGolden's cases are built forward,
// in reverse, interleaved and from two goroutines at once, and every build
// hashes to its golden value — hashed only after all the builds of its order,
// so a layout that kept a view of the scratch a later build refilled fails.
// And a warm build allocates its output and a small constant more: the
// scratch is not made again.
func TestBuildReusesScratch(t *testing.T) {
	builds := goldenBuilds(t)
	n := len(builds)
	reverse := make([]int, n)
	interleaved := make([]int, 0, n)
	for i := range builds {
		reverse[i] = n - 1 - i
		if i%2 == 0 {
			interleaved = append(interleaved, i/2)
		} else {
			interleaved = append(interleaved, n-1-i/2)
		}
	}
	forward := slices.Clone(reverse)
	slices.Reverse(forward)
	check := func(label string, order []int) {
		got := make([][]*Layout, len(order))
		for k, i := range order {
			got[k] = builds[i].build()
		}
		for k, i := range order {
			if h := layoutHash(got[k]); h != builds[i].want {
				t.Errorf("%s: %s hashes to %s, want %s", label, builds[i].name, h, builds[i].want)
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

	// Allocation, at one P and with the collector off, so that the pool
	// hands back what the warm-up put in; the least of a few builds, as the
	// race detector's pool drops a share of what it is given.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const slack = 16 << 10
	for _, g := range builds {
		out := outputBytes(g.build())
		least := ^uint64(0)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			g.build()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > out+slack {
			t.Errorf("%s: a warm build allocates %d bytes, its output is %d", g.name, least, out)
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

// outputBytes is what Build's output holds: every layout and set layout, a
// slab a rank, and the two slabs of all ranks' import and export lists.
func outputBytes(layouts []*Layout) uint64 {
	total := allocated[*Layout](len(layouts))
	runs, link := 0, 0
	for _, l := range layouts {
		slab := len(l.mapAt) + len(l.maps)
		for s := range l.Sets {
			sl := &l.Sets[s]
			slab += len(sl.l2g) + len(sl.execOrder) + len(sl.execStart) + len(sl.nonexecStart) + len(sl.corePrefix)
			runs += len(sl.runs)
			link += len(sl.runAt) + len(sl.runs) // the offsets, and room for as many neighbours as runs
		}
		link += len(l.locals)
		total += allocated[Layout](1) + allocated[SetLayout](len(l.Sets)) + allocated[int32](slab)
	}
	return total + allocated[Range](runs) + allocated[int32](link)
}

// warmStorage is a Storage that hands out again, in order, the slabs it made
// for the build before: what a lender does for the layouts of one shape.
type warmStorage struct {
	int32s [][]int32
	ranges [][]Range
	ni, nr int
}

func (w *warmStorage) Int32s(n int) []int32 {
	if w.ni == len(w.int32s) {
		w.int32s = append(w.int32s, make([]int32, n))
	}
	w.ni++
	return w.int32s[w.ni-1][:n]
}

func (w *warmStorage) Ranges(n int) []Range {
	if w.nr == len(w.ranges) {
		w.ranges = append(w.ranges, make([]Range, n))
	}
	w.nr++
	return w.ranges[w.nr-1][:n]
}

// TestLayoutIsFlat: built into warm storage, a rank's layout is a constant
// number of objects — the Layout and its Sets — whatever the program's depth,
// shells and neighbours; every array it holds is a window of the Storage's
// pointer-free slabs. And the storage's content does not matter: a build
// into slabs that hold another shape's layouts hashes to the golden value.
func TestLayoutIsFlat(t *testing.T) {
	builds := goldenBuilds(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i, g := range builds {
		st := new(warmStorage)
		build := func() []*Layout {
			st.ni, st.nr = 0, 0
			return BuildIn(st, g.prog, g.owners, g.nparts, g.depth, g.maxChain)
		}
		build()
		least := ^uint64(0)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			build()
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		if bound := uint64(3*g.nparts + 8); least > bound {
			t.Errorf("%s: a warm build makes %d objects, want at most %d for %d ranks", g.name, least, bound, g.nparts)
		}
		// Dirty storage: the slabs of the previous case, overwritten.
		other := builds[(i+1)%len(builds)]
		BuildIn(st, other.prog, other.owners, other.nparts, other.depth, other.maxChain)
		for _, s := range st.int32s {
			for k := range s[:cap(s)] {
				s[:cap(s)][k] = -7
			}
		}
		if h := layoutHash(build()); h != g.want {
			t.Errorf("%s: built into used storage, hashes to %s, want %s", g.name, h, g.want)
		}
	}
}
