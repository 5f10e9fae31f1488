package runspec

import (
	"errors"
	"slices"
	"testing"

	"op2ca/internal/partition"
)

// mapAssignments is the Assignments contract at its plainest: a copy in, a
// copy out.
type mapAssignments struct {
	kept          map[AssignmentKey]partition.Assignment
	loads, stores int
}

func (m *mapAssignments) Load(k AssignmentKey) partition.Assignment {
	m.loads++
	return slices.Clone(m.kept[k]) // nil stays nil
}

func (m *mapAssignments) Store(k AssignmentKey, a partition.Assignment) {
	m.stores++
	m.kept[k] = slices.Clone(a)
}

// TestNewProblemThroughAssignments: with nowhere to look NewProblem computes,
// as every front-end but the service has it do; with somewhere, it computes
// once per key and the Problems after that are built from what was kept —
// the same assignment, in a slice of their own. The key is the generator's
// input, the partitioner and the rank count, whatever the app or backend.
func TestNewProblemThroughAssignments(t *testing.T) {
	resolve := func(s Spec) *Run {
		t.Helper()
		r, err := s.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	build := func(r *Run) *Problem {
		t.Helper()
		p, err := r.NewProblem()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	s := small("hydra")
	s.Partitioner = "kway" // mgcfd's default, so both apps share one key below
	want := build(resolve(s))
	if want.AssignStored {
		t.Error("a Problem built with no Assignments says its assignment was stored")
	}

	kept := &mapAssignments{kept: map[AssignmentKey]partition.Assignment{}}
	r := resolve(s)
	r.Assignments = kept
	first := build(r)
	if first.AssignStored || kept.loads != 1 || kept.stores != 1 || !slices.Equal(first.Assign, want.Assign) {
		t.Fatalf("first build: stored %v after %d loads and %d stores, assignment equal %v; want a computed assignment, looked up and left behind",
			first.AssignStored, kept.loads, kept.stores, slices.Equal(first.Assign, want.Assign))
	}
	key := AssignmentKey{MeshNodes: s.MeshNodes, Partitioner: "kway", Ranks: s.Ranks}
	if _, ok := kept.kept[key]; !ok || len(kept.kept) != 1 {
		t.Fatalf("kept under %v, want under %v alone", kept.kept, key)
	}

	other := small("mgcfd")
	other.Backend = "op2"
	r = resolve(other)
	r.Assignments = kept
	second := build(r)
	if !second.AssignStored || kept.stores != 1 || !slices.Equal(second.Assign, want.Assign) {
		t.Errorf("an mgcfd/op2 run on the hydra/ca run's mesh, partitioner and ranks: stored %v after %d stores", second.AssignStored, kept.stores)
	}
	if &second.Assign[0] == &first.Assign[0] || &second.Assign[0] == &kept.kept[key][0] {
		t.Error("two Problems, or a Problem and the store, share one slice")
	}

	// More ranks than the rounded mesh holds: the size error, whether or not
	// something is kept under the key — and nothing is looked up or left.
	s.Ranks = 5000
	for _, planted := range []bool{false, true} {
		kept := &mapAssignments{kept: map[AssignmentKey]partition.Assignment{}}
		if planted {
			kept.kept[AssignmentKey{MeshNodes: s.MeshNodes, Partitioner: "kway", Ranks: 5000}] = partition.Block(want.Mesh.NNodes, 3)
		}
		r := resolve(s)
		r.Assignments = kept
		var size *SizeError
		if _, err := r.NewProblem(); !errors.As(err, &size) || kept.loads != 0 || kept.stores != 0 {
			t.Errorf("5000 ranks, entry planted %v: err = %v after %d loads and %d stores; want a *SizeError and neither", planted, err, kept.loads, kept.stores)
		}
	}

	// The sequential reference has no partition to keep.
	s = small("hydra")
	s.Backend = "seq"
	r = resolve(s)
	r.Assignments = kept
	if p := build(r); p.Assign != nil || kept.loads != 2 {
		t.Errorf("seq: assignment %v after %d loads, want none and no lookup", p.Assign != nil, kept.loads)
	}
}
