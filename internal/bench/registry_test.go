package bench

import (
	"reflect"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"op2ca/internal/cluster"
	"op2ca/internal/leakcheck"
	"op2ca/internal/runspec"
)

// sweepOrder is paper-sweep's pass: its experiments, in its order.
var sweepOrder = []string{"table5", "fig12", "table2", "fig13"}

// recordingLender is a cluster.Lender that records the size of every Get,
// under the point it was made for, and its misses at the end of each point.
type recordingLender struct {
	cluster.Lender
	mu     sync.Mutex
	gets   [][]int // by point
	misses []int64 // by point, cumulative
}

// endPoint closes the point the Gets so far were made for.
func (l *recordingLender) endPoint() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.gets = append(l.gets, nil)
	l.misses = append(l.misses, l.Lender.Stats().Misses)
}

func (l *recordingLender) Get(n int) []float64 {
	l.mu.Lock()
	last := len(l.gets) - 1
	l.gets[last] = append(l.gets[last], n)
	l.mu.Unlock()
	return l.Lender.Get(n)
}

// recordingStore is an instance store that records every key looked up.
type recordingStore struct {
	runspec.GCStore[runspec.InstanceKey, runspec.Instance]
	mu   sync.Mutex
	keys map[runspec.InstanceKey]bool
}

func (s *recordingStore) Load(k runspec.InstanceKey) *runspec.Instance {
	s.mu.Lock()
	s.keys[k] = true
	s.mu.Unlock()
	return s.GCStore.Load(k)
}

// TestRegistrySharesItsSetUp (run under -race): paper-sweep's pass — table5,
// fig12, table2, fig13 in order, at its warm-up scale — on one registry,
// serial and with parallel ranks, the collector off. The registry's instance
// store misses once for every distinct (app, mesh) of the whole pass, not
// once an experiment. A point borrows its dat slabs, its halo layouts and
// their exchange schedules from the registry's lender and gives all of them
// back, so after the pass's first point the lender makes a slab only where a
// point needs more than an earlier one did: no more new slabs than the
// point's Gets, largest first, outgrow the earlier point's, size rank by size
// rank — none for a point no larger than an earlier one. It has nothing out
// at the end; and the rows and every Observe label and checksum equal those
// of the pass whose experiments each get a registry of their own, and of the
// pass that lends nothing.
func TestRegistrySharesItsSetUp(t *testing.T) {
	defer leakcheck.Check(t)()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, parallel := range []bool{false, true} {
		name := "serial"
		if parallel {
			name = "parallel"
		}
		base := Config{Nodes8M: 300, Nodes24M: 900, RankScale: 0.0005, Iters: 1, Parallel: parallel}
		// pass runs the experiments, each from the registry reg returns, and
		// calls point after each point's CA backend.
		pass := func(reg func() map[string]func(Config) *Table, point func()) (rows [][][]string, sums []string) {
			c := base
			c.Observe = func(label string, b *cluster.Backend) {
				sums = append(sums, label+" "+b.ChecksumDats())
				if len(sums)%2 == 0 {
					point()
				}
			}
			for _, exp := range sweepOrder {
				rows = append(rows, reg()[exp](c).Rows)
			}
			return rows, sums
		}
		wantRows, wantSums := pass(Experiments, func() {})
		unlentRows, unlentSums := pass(func() map[string]func(Config) *Table { return registry(nil, nil) }, func() {})
		if !reflect.DeepEqual(unlentRows, wantRows) || !reflect.DeepEqual(unlentSums, wantSums) {
			t.Errorf("%s: the pass that lends nothing reads\n%v\n%v\nwant\n%v\n%v", name, unlentRows, unlentSums, wantRows, wantSums)
		}

		lender := &recordingLender{gets: make([][]int, 1)}
		store := &recordingStore{keys: map[runspec.InstanceKey]bool{}}
		shared := registry(lender, store)
		rows, sums := pass(func() map[string]func(Config) *Table { return shared }, lender.endPoint)

		if !reflect.DeepEqual(rows, wantRows) {
			t.Errorf("%s: rows\n got %v\nwant %v", name, rows, wantRows)
		}
		if !reflect.DeepEqual(sums, wantSums) {
			t.Errorf("%s: Observe checksums\n got %v\nwant %v", name, sums, wantSums)
		}
		points := len(sums) / 2
		if hits, misses := store.Stats(); misses != len(store.keys) || hits+misses != points {
			t.Errorf("%s: %d instance misses and %d hits over %d points on %d distinct (app, mesh) pairs; want a lookup a point and a miss a pair",
				name, misses, hits, points, len(store.keys))
		}
		st, gets := lender.Stats(), 0
		for _, p := range lender.gets {
			gets += len(p)
		}
		if st.Hits+st.Misses != int64(gets) || gets == 0 {
			t.Fatalf("%s: the lender served %d of %d Gets", name, st.Hits+st.Misses, gets)
		}
		// The first point fills the lender. After it, each point makes at most
		// as many slabs as outgrow an earlier point's.
		byPoint := make([][]int, len(lender.gets))
		for p, gets := range lender.gets {
			byPoint[p] = slices.Clone(gets)
			slices.SortFunc(byPoint[p], func(a, b int) int { return b - a })
		}
		for p := 1; p < points; p++ {
			made, least := lender.misses[p]-lender.misses[p-1], len(byPoint[p])
			for q := range p {
				outgrown := 0
				for i, n := range byPoint[p] {
					if i >= len(byPoint[q]) || n > byPoint[q][i] {
						outgrown++
					}
				}
				least = min(least, outgrown)
			}
			if made > int64(least) {
				t.Errorf("%s: point %d makes %d slabs, but at most %d of its %d outgrow an earlier point's",
					name, p, made, least, len(byPoint[p]))
			}
		}
		if st.LentBytes != 0 {
			t.Errorf("%s: %d bytes still lent after the pass", name, st.LentBytes)
		}
	}
}
