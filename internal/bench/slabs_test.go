package bench

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"op2ca/internal/checkpoint"
	"op2ca/internal/cluster"
	"op2ca/internal/leakcheck"
	"op2ca/internal/runspec"
)

// poisonLender is a cluster.Lender that fills every slab with NaN on its way
// out and on its way back: a borrower that reads what it did not write, or
// holds on to what it gave back — dats, halo layouts or exchange schedules,
// whose integers NaN turns to nonsense — computes something else.
type poisonLender struct{ cluster.Lender }

func poison(s []float64) {
	for i := range s[:cap(s)] {
		s[:cap(s)][i] = math.NaN()
	}
}

func (p *poisonLender) Get(n int) []float64 {
	s := p.Lender.Get(n)
	poison(s)
	return s
}

func (p *poisonLender) Put(s []float64) {
	poison(s)
	p.Lender.Put(s)
}

// TestExperimentsLendTheirSlabs (run under -race): table5 and table2 at
// paper-sweep's warm-up scale, each handed a poisoning cluster.Lender of its
// own, serial and with parallel ranks. A point's CA backend borrows what its
// OP2 twin returned, so the lender hits at least once a point; every backend
// gives back what it borrowed, the restores a -restore resume refuses
// included, and every point its halo layouts and their schedules; and the
// rows and every Observe checksum equal the experiment's without a lender.
// A Problem's layouts do not go back while a backend on them is open.
func TestExperimentsLendTheirSlabs(t *testing.T) {
	defer leakcheck.Check(t)()
	for _, parallel := range []bool{false, true} {
		base := Config{Nodes8M: 300, Nodes24M: 900, RankScale: 0.0005, Iters: 1, Parallel: parallel}
		// A generation of table2's last measured run: offered to every run of
		// both experiments, it is refused by table5's and continued by one of
		// table2's.
		ring, err := checkpoint.NewRing(checkpoint.Spec{Every: 1, Path: filepath.Join(t.TempDir(), "ck.bin"), Keep: 1})
		if err != nil {
			t.Fatal(err)
		}
		c := base
		c.Ring = ring
		Table2(c)
		if err := ring.Flush(); err != nil {
			t.Fatal(err)
		}
		snapshot := ring.Generations()[0].Path

		for _, exp := range []struct {
			name   string
			run    func(Config) *Table
			points int
		}{
			{"table5", Table5, len(table5Nodes)},
			{"table2", Table2, 2 * len(table2Nodes) * len(table2Loops)},
		} {
			// run runs the experiment on slabs, resuming from the snapshot
			// when asked, and returns its rows, every Observe label and
			// checksum in order, and how many runs continued the snapshot.
			run := func(slabs cluster.SlabLender, resume bool) (rows [][]string, sums []string, adopted int) {
				t.Helper()
				c := base
				c.slabs = slabs
				if resume {
					st, err := checkpoint.ReadFile(snapshot)
					if err != nil {
						t.Fatal(err)
					}
					c.Resume = &Resume{State: st}
				}
				c.Observe = func(label string, b *cluster.Backend) {
					sums = append(sums, label+" "+b.ChecksumDats())
				}
				rows = exp.run(c).Rows
				if resume {
					adopted = c.Resume.Adopted
				}
				return rows, sums, adopted
			}
			name := exp.name
			if parallel {
				name += "/parallel"
			}
			wantRows, wantSums, _ := run(nil, false)
			if len(wantSums) != 2*exp.points {
				t.Fatalf("%s: %d backends observed, want %d", name, len(wantSums), 2*exp.points)
			}
			for _, resume := range []bool{false, true} {
				lender := new(poisonLender)
				rows, sums, adopted := run(lender, resume)
				leg := name
				if resume {
					leg += " resumed"
					if wantAdopted := map[string]bool{"table2": true}[exp.name]; (adopted > 0) != wantAdopted {
						t.Errorf("%s: %d runs continued table2's snapshot", leg, adopted)
					}
				}
				st := lender.Stats()
				if st.Hits < int64(exp.points) {
					t.Errorf("%s: %d lender hits over %d points (%d misses)", leg, st.Hits, exp.points, st.Misses)
				}
				if st.LentBytes != 0 {
					t.Errorf("%s: %d bytes still lent after the experiment", leg, st.LentBytes)
				}
				if !reflect.DeepEqual(rows, wantRows) {
					t.Errorf("%s: rows\n got %v\nwant %v", leg, rows, wantRows)
				}
				if !reflect.DeepEqual(sums, wantSums) {
					t.Errorf("%s: Observe checksums\n got %v\nwant %v", leg, sums, wantSums)
				}
			}
		}
	}

	lender := new(cluster.Lender)
	c := Config{Iters: 1, slabs: lender}
	r := c.resolve(runspec.Spec{App: "hydra", MeshNodes: 300, Ranks: 2, Backend: "ca", Iters: 1}, archer())
	p := problem(r)
	a, err := r.BuildOn(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if e, ok := recover().(*cluster.ReleaseError); !ok || e.Open != 1 {
				t.Errorf("Release with a backend open: recovered %v, want a *cluster.ReleaseError naming 1 open", e)
			}
		}()
		p.Release()
	}()
	a.Close()
	p.Release()
	if st := lender.Stats(); st.LentBytes != 0 {
		t.Errorf("%d bytes still lent after the Problem's Release", st.LentBytes)
	}
}
