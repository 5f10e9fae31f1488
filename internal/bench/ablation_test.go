package bench

import (
	"fmt"
	"testing"

	"op2ca/internal/cluster"
)

// fmtSscan parses one float from a table cell.
func fmtSscan(s string, v *float64) (int, error) { return fmt.Sscan(s, v) }

func TestAblationDepthShape(t *testing.T) {
	tab := AblationDepth(tiny())
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	// Deeper-than-needed halos must be slower (monotone CA time).
	var prev float64
	for i, row := range tab.Rows {
		var v float64
		if _, err := sscan(row[1], &v); err != nil {
			t.Fatalf("bad time cell %q", row[1])
		}
		if i > 0 && v <= prev {
			t.Errorf("CA time should grow with excess halo depth: %v", tab.Rows)
		}
		prev = v
	}
}

func TestAblationGroupingWins(t *testing.T) {
	tab := AblationGrouping(tiny())
	for _, row := range tab.Rows {
		var perDat, grouped float64
		if _, err := sscan(row[2], &perDat); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(row[3], &grouped); err != nil {
			t.Fatal(err)
		}
		if grouped >= perDat {
			t.Errorf("grouped messages should beat per-dat messages: %v", row)
		}
	}
}

func TestAblationPartitionerComplete(t *testing.T) {
	tab := AblationPartitioner(tiny())
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	// The random partition must have the worst cut.
	var kwayCut, randCut float64
	for _, row := range tab.Rows {
		var cut float64
		if _, err := sscan(row[1], &cut); err != nil {
			t.Fatal(err)
		}
		switch row[0] {
		case "kway":
			kwayCut = cut
		case "random":
			randCut = cut
		}
	}
	if randCut <= kwayCut {
		t.Errorf("random cut %g should exceed kway cut %g", randCut, kwayCut)
	}
}

func TestAblationGPULaunch(t *testing.T) {
	tab := AblationGPULaunch(tiny())
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	// CA must win at every overhead setting on the GPU model.
	for _, row := range tab.Rows {
		var g float64
		if _, err := sscan(row[3], &g); err != nil {
			t.Fatal(err)
		}
		if g <= 0 {
			t.Errorf("CA should win on the GPU model at overhead %s: gain %g%%", row[0], g)
		}
	}
}

// TestAblationGPUDirect: the pin reaches the backend (the two modes time
// differently) and, with per-GPU kernels this heavy, staging beats GPUDirect
// — the paper's Section 3.3 choice.
func TestAblationGPUDirect(t *testing.T) {
	c := tiny()
	var labels []string
	c.Observe = func(label string, _ *cluster.Backend) { labels = append(labels, label) }
	tab := AblationGPUDirect(c)
	if len(tab.Rows) != 2 || len(labels) != 4 ||
		labels[0] != "hydra ca gpudirect=false ranks=2 (Cirrus)" || labels[3] != "hydra ca gpudirect=true ranks=4 (Cirrus)" {
		t.Fatalf("rows %v, observed %q", tab.Rows, labels)
	}
	for _, row := range tab.Rows {
		var staged, direct float64
		if _, err := sscan(row[1], &staged); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(row[2], &direct); err != nil {
			t.Fatal(err)
		}
		if staged <= 0 || direct <= 0 || staged == direct {
			t.Errorf("staged %g vs GPUDirect %g: want two positive, different times", staged, direct)
		}
	}
	var gain float64
	if _, err := sscan(tab.Rows[0][3], &gain); err != nil || gain <= 0 {
		t.Errorf("2 ranks: staging gain %q (%v), want staging to win", tab.Rows[0][3], err)
	}
}

// TestHaloProfileShape: one row per (rank count, set); partitions shrink as
// ranks grow, a rank's core is a strict part of what it owns, and every
// deeper execute shell of the edges adds elements (the per-layer cost of a
// CA chain).
func TestHaloProfileShape(t *testing.T) {
	tab := HaloProfile(tiny())
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d, want 3 rank counts x 3 sets", len(tab.Rows))
	}
	cell := func(row []string, i int) float64 {
		var v float64
		if _, err := sscan(row[i], &v); err != nil {
			t.Fatalf("bad cell %q in %v", row[i], row)
		}
		return v
	}
	prevOwned := map[string]float64{}
	for _, row := range tab.Rows {
		set, owned, core := row[1], cell(row, 2), cell(row, 3)
		if core <= 0 || core >= owned {
			t.Errorf("%v: core %g should be a strict part of owned %g", row, core, owned)
		}
		if prev, ok := prevOwned[set]; ok && owned >= prev {
			t.Errorf("%v: owned %g did not shrink from %g with more ranks", row, owned, prev)
		}
		prevOwned[set] = owned
		if set == "edges" {
			d1, d2, d3 := cell(row, 4), cell(row, 5), cell(row, 6)
			if d1 <= 0 || d2 <= d1 || d3 < d2 || cell(row, 10) <= 1 {
				t.Errorf("%v: exec shells %g, %g, %g should grow", row, d1, d2, d3)
			}
		}
	}
}

// sscan parses one float from a table cell.
func sscan(s string, v *float64) (int, error) {
	return fmtSscan(s, v)
}
