package bench

import (
	"reflect"
	"runtime/debug"
	"testing"

	"op2ca/internal/cluster"
	"op2ca/internal/leakcheck"
	"op2ca/internal/runspec"
)

// neverHits is an instance store that keeps nothing: every point declares
// its own app.
type neverHits struct{}

func (neverHits) Load(runspec.InstanceKey) *runspec.Instance   { return nil }
func (neverHits) Store(runspec.InstanceKey, *runspec.Instance) {}

// TestExperimentsShareTheirInstances (run under -race): table5 and table2 at
// paper-sweep's warm-up scale, serial and with parallel ranks, each through
// the store Experiments hands it. With no collection to evict anything, the
// experiment declares each of its meshes once — the store misses once a
// distinct mesh and every other point hits — and the rows and every Observe
// label and checksum equal those of the experiment whose points each declare
// their own.
func TestExperimentsShareTheirInstances(t *testing.T) {
	defer leakcheck.Check(t)()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, parallel := range []bool{false, true} {
		base := Config{Nodes8M: 300, Nodes24M: 900, RankScale: 0.0005, Iters: 1, Parallel: parallel}
		for _, exp := range []struct {
			name           string
			points, meshes int
		}{
			{"table5", len(table5Nodes), 1},
			{"table2", 2 * len(table2Nodes) * len(table2Loops), 2},
		} {
			run := func(store runspec.Instances) (rows [][]string, sums []string) {
				c := base
				c.instances = store
				c.Observe = func(label string, b *cluster.Backend) {
					sums = append(sums, label+" "+b.ChecksumDats())
				}
				return Experiments()[exp.name](c).Rows, sums
			}
			name := exp.name
			if parallel {
				name += "/parallel"
			}
			wantRows, wantSums := run(neverHits{})
			store := new(runspec.GCStore[runspec.InstanceKey, runspec.Instance])
			rows, sums := run(store)
			if hits, misses := store.Stats(); misses != exp.meshes || hits != exp.points-exp.meshes {
				t.Errorf("%s: %d hits and %d misses over %d points on %d meshes; want a miss a mesh and a hit for every other point",
					name, hits, misses, exp.points, exp.meshes)
			}
			if !reflect.DeepEqual(rows, wantRows) {
				t.Errorf("%s: rows\n got %v\nwant %v", name, rows, wantRows)
			}
			if len(sums) != 2*exp.points || !reflect.DeepEqual(sums, wantSums) {
				t.Errorf("%s: Observe checksums\n got %v\nwant %v", name, sums, wantSums)
			}
		}
	}
}
