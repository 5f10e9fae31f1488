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

// outputBytes is what Build's output holds: every layout, set layout and
// slice it made for them.
func outputBytes(layouts []*Layout) uint64 {
	total := allocated[*Layout](len(layouts))
	for _, l := range layouts {
		total += allocated[Layout](1) + allocated[*SetLayout](len(l.Sets)) + allocated[[]int32](len(l.Maps))
		total += allocated[int32](cap(l.Neighbours))
		for _, m := range l.Maps {
			total += allocated[int32](cap(m))
		}
		exports := 0 // one array a rank
		for _, sl := range l.Sets {
			total += allocated[SetLayout](1) + allocated[int32](cap(sl.L2G)) + allocated[int32](cap(sl.ExecOrder))
			total += allocated[int32](cap(sl.corePrefix)) + allocated[int32](cap(sl.ExecStart)) + allocated[int32](cap(sl.NonexecStart))
			total += allocated[int32](sl.Total() - sl.NOwned) // the export lists' locals
			total += 2*allocated[[]ImportRange](l.Depth) + 2*allocated[[]ExportList](l.Depth)
			for d := 0; d < l.Depth; d++ {
				total += allocated[ImportRange](cap(sl.ImportExec[d])) + allocated[ImportRange](cap(sl.ImportNonexec[d]))
				exports += cap(sl.ExportExec[d]) + cap(sl.ExportNonexec[d])
			}
		}
		total += allocated[ExportList](exports)
	}
	return total
}
