package autotune

import (
	"testing"

	"op2ca/internal/model"
)

func TestPolicyKeyAndEqual(t *testing.T) {
	if (Policy{}).Key() != "op2" {
		t.Errorf("zero policy key = %q", Policy{}.Key())
	}
	ca := Policy{CA: true, Depth: 2, HE: []int{2, 1}, Grouped: true}
	if ca.Key() != "ca:he=2:grouped" {
		t.Errorf("key = %q", ca.Key())
	}
	if (Policy{CA: true, Depth: 3}).Key() != "ca:he=3:ungrouped" {
		t.Errorf("key = %q", Policy{CA: true, Depth: 3}.Key())
	}
	if !ca.Equal(Policy{CA: true, Depth: 2, HE: []int{2, 1}, Grouped: true}) {
		t.Error("identical policies must be Equal")
	}
	if ca.Equal(Policy{CA: true, Depth: 2, HE: []int{2, 2}, Grouped: true}) {
		t.Error("different HE must not be Equal")
	}
	if ca.Equal(Policy{}) {
		t.Error("CA and OP2 must not be Equal")
	}
	// Overlap is a policy dimension: it must separate keys (the plan cache
	// and the decision log key on them) and break equality.
	ov := Policy{CA: true, Depth: 2, HE: []int{2, 1}, Grouped: true, Overlap: true}
	if ov.Key() != "ca:he=2:grouped:ov" {
		t.Errorf("overlap key = %q", ov.Key())
	}
	if (Policy{CA: true, Depth: 3, Overlap: true}).Key() != "ca:he=3:ungrouped:ov" {
		t.Errorf("overlap key = %q", Policy{CA: true, Depth: 3, Overlap: true}.Key())
	}
	if ca.Equal(ov) || ov.Equal(ca) {
		t.Error("bulk and overlapped policies must not be Equal")
	}
	if !ov.Equal(Policy{CA: true, Depth: 2, HE: []int{2, 1}, Grouped: true, Overlap: true}) {
		t.Error("identical overlapped policies must be Equal")
	}
}

// TestScoreOverlapCheaper: on a latency-dominated network an overlapped CA
// candidate must score strictly below its bulk twin — (p-1) latencies and
// handshakes leave the modelled communication term — so the tuner can
// prefer it whenever the executor offers both.
func TestScoreOverlapCheaper(t *testing.T) {
	cal := Calib{L: 10e-6, B: 1e9, PackRate: 4e9}
	in := tuneFixture(150)
	bulk := in.CA[0]
	ov := bulk
	ov.Policy = Policy{CA: true, Depth: bulk.Policy.Depth, HE: bulk.Policy.HE,
		Grouped: bulk.Policy.Grouped, Overlap: true}
	in.CA = append(in.CA, ov)
	d, err := Score(in, cal)
	if err != nil {
		t.Fatal(err)
	}
	var tBulk, tOv float64
	for _, c := range d.Candidates {
		switch c.Policy {
		case "ca:he=2:grouped":
			tBulk = c.Predicted
		case "ca:he=2:grouped:ov":
			tOv = c.Predicted
		}
	}
	if tBulk == 0 || tOv == 0 {
		t.Fatalf("candidates missing: %+v", d.Candidates)
	}
	if tOv >= tBulk {
		t.Errorf("overlapped candidate not cheaper: %g vs bulk %g", tOv, tBulk)
	}
	if d.Chosen != "ca:he=2:grouped:ov" {
		t.Errorf("chosen = %q, want the overlapped candidate", d.Chosen)
	}
}

// tuneFixture builds a one-loop chain where the CA candidate's model time
// is controllable through its halo size.
func tuneFixture(haloIters float64) ChainInputs {
	op2Loop := model.LoopParams{
		G: 1e-8, CoreIters: 1000, HaloIters: 100,
		NDats: 2, Neighbours: 4, MsgBytes: 8192,
	}
	return ChainInputs{
		Chain: "c",
		Op2:   []model.LoopParams{op2Loop, op2Loop},
		CA: []CACandidate{{
			Policy: Policy{CA: true, Depth: 2, HE: []int{2, 1}, Grouped: true},
			Params: model.ChainParams{
				Loops: []model.LoopParams{
					{G: 1e-8, CoreIters: 1000, HaloIters: haloIters},
					{G: 1e-8, CoreIters: 1000, HaloIters: haloIters},
				},
				Neighbours: 4, GroupedBytes: 16384,
			},
			PackBytes: 16384,
		}},
	}
}

func TestScorePicksCheapest(t *testing.T) {
	cal := Calib{L: 10e-6, B: 1e9, PackRate: 4e9}
	d, err := Score(tuneFixture(150), cal)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Candidates) != 2 {
		t.Fatalf("candidates = %+v", d.Candidates)
	}
	if d.Candidates[0].Policy != "op2" {
		t.Error("OP2 must be scored first")
	}
	wantOp2 := model.TOp2Chain(tuneFixture(150).Op2, cal.Net(0))
	if d.PredictedOp2 != wantOp2 {
		t.Errorf("PredictedOp2 = %g, want %g", d.PredictedOp2, wantOp2)
	}
	// With 10us latency and two loops' worth of per-loop exchanges, the
	// single grouped exchange must win.
	if d.Chosen != "ca:he=2:grouped" || !d.ChosenPolicy.CA {
		t.Errorf("chosen = %q (%+v)", d.Chosen, d.ChosenPolicy)
	}
	if d.Predicted >= d.PredictedOp2 {
		t.Errorf("CA won without being cheaper: %g vs %g", d.Predicted, d.PredictedOp2)
	}
}

func TestScoreKeepsOp2WhenCompeteDominates(t *testing.T) {
	// Latency-free network: OP2's exchanges cost almost nothing, CA still
	// pays its redundant halo compute.
	cal := Calib{L: 1e-12, B: 1e15, PackRate: 1e15}
	d, err := Score(tuneFixture(5000), cal)
	if err != nil {
		t.Fatal(err)
	}
	if d.Chosen != "op2" || d.ChosenPolicy.CA {
		t.Errorf("chosen = %q, want op2", d.Chosen)
	}
	if d.Predicted != d.PredictedOp2 {
		t.Error("an OP2 decision must predict the OP2 time")
	}
}

func TestScoreTieKeepsOp2(t *testing.T) {
	// A candidate that prices exactly equal must not displace the baseline
	// (strict less-than, matching jq min_by keeping the first of equals).
	in := tuneFixture(100)
	cal := Calib{L: 1e-6, B: 1e9, PackRate: 4e9}
	op2 := model.TOp2Chain(in.Op2, cal.Net(0))
	in.CA = []CACandidate{{Policy: Policy{CA: true, Depth: 1}, Params: model.ChainParams{
		Loops: []model.LoopParams{{G: op2, CoreIters: 1}}}}}
	if got := model.TCAChain(in.CA[0].Params, cal.Net(0)); got != op2 {
		t.Fatalf("tie setup broken: %g vs %g", got, op2)
	}
	d, err := Score(in, cal)
	if err != nil {
		t.Fatal(err)
	}
	if d.Chosen != "op2" {
		t.Errorf("tie must keep op2, chose %q", d.Chosen)
	}
}

func TestScoreValidates(t *testing.T) {
	in := tuneFixture(100)
	if _, err := Score(in, Calib{L: -1, B: 1e9, PackRate: 1}); err == nil {
		t.Error("negative latency must fail validation")
	}
	bad := tuneFixture(100)
	bad.Op2[0].G = -5
	if _, err := Score(bad, Calib{L: 1e-6, B: 1e9, PackRate: 1}); err == nil {
		t.Error("negative op2 G must fail validation")
	}
	bad2 := tuneFixture(100)
	bad2.CA[0].Params.Loops[0].CoreIters = -1
	if _, err := Score(bad2, Calib{L: 1e-6, B: 1e9, PackRate: 1}); err == nil {
		t.Error("negative CA iteration count must fail validation")
	}
}

func TestShouldReplan(t *testing.T) {
	if ShouldReplan(1.0, 1.1) {
		t.Error("10% error under the 25% threshold must not re-plan")
	}
	if !ShouldReplan(1.0, 2.0) {
		t.Error("50% error over the 25% threshold must re-plan")
	}
	if ShouldReplan(1.0, 0) {
		t.Error("unmeasured window must not re-plan")
	}
}
