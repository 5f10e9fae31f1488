package cluster

import (
	"math"
	"testing"

	"op2ca/internal/chaincfg"
	"op2ca/internal/machine"
	"op2ca/internal/mesh"
	"op2ca/internal/obs"
	"op2ca/internal/partition"
)

// TestOverlapReducesMakespanCommBound is what overlapped delivery is for, on
// a communication-bound fixture: the overlapped run's makespan must land
// strictly below the bulk-synchronous run's (each multi-message exchange
// hides (k-1) latencies and rendezvous handshakes), while results remain
// bit-identical — the pipeline moves virtual time only.
func TestOverlapReducesMakespanCommBound(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	bulkRes, bulkB := faultyResult(t, m, 2, nil, "ca")
	ovRes, ovB := faultyResult(t, m, 2, nil, "ca-overlap")
	compareExact(t, "overlap-vs-bulk", ovRes, bulkRes)
	if ovB.MaxClock() >= bulkB.MaxClock() {
		t.Errorf("overlapped makespan %v not strictly below bulk %v",
			ovB.MaxClock(), bulkB.MaxClock())
	}
	// Per-rank clocks must never regress: the overlapped delivery is a
	// pointwise lower bound on the bulk arrivals.
	bc, oc := bulkB.Clocks(), ovB.Clocks()
	for r := range bc {
		if oc[r] > bc[r] {
			t.Errorf("rank %d: overlapped clock %v above bulk %v", r, oc[r], bc[r])
		}
	}
}

// TestOverlapDeterministic: two identical overlapped runs agree on every
// clock and counter — the pipeline arithmetic is as replayable as bulk's.
func TestOverlapDeterministic(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	_, b1 := faultyResult(t, m, 2, nil, "ca-overlap")
	_, b2 := faultyResult(t, m, 2, nil, "ca-overlap")
	c1, c2 := b1.Clocks(), b2.Clocks()
	for r := range c1 {
		if c1[r] != c2[r] {
			t.Fatalf("rank %d clock differs between identical overlapped runs: %v vs %v", r, c1[r], c2[r])
		}
	}
	if s1, s2 := b1.Stats().String(), b2.Stats().String(); s1 != s2 {
		t.Errorf("stats differ between identical overlapped runs:\n%s\nvs\n%s", s1, s2)
	}
}

// TestOverlapProfile: the critical-path self-check must keep tiling the
// makespan under overlapped delivery — hidden in-flight time is
// charged to no wait cause, it simply never appears on the path — and the
// analysis must report a positive WaitHidden for the chain (the quantity
// overlap exists to grow).
func TestOverlapProfile(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	run := func(overlap bool) *Backend {
		a := newMiniApp(m)
		a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
		b, err := New(Config{
			Prog: a.p, Primary: a.nodes, Assign: partition.KWay(m.NodeAdjacency(), 4), NParts: 4,
			Depth: 2, MaxChainLen: 4, CA: true, Machine: machine.ARCHER2(),
			Overlap: overlap, Tracer: obs.New(),
		})
		if err != nil {
			t.Fatal(err)
		}
		a.run(b, 2, true)
		return b
	}
	ovB := run(true)
	checkPathTilesMakespan(t, "overlap", ovB)
	var ovHidden, bulkHidden float64
	for _, cc := range ovB.Profile().Comm {
		ovHidden += cc.WaitHidden
	}
	if ovHidden <= 0 {
		t.Error("overlapped run hides no in-flight time")
	}
	bulkB := run(false)
	checkPathTilesMakespan(t, "bulk", bulkB)
	for _, cc := range bulkB.Profile().Comm {
		bulkHidden += cc.WaitHidden
	}
	if ovHidden <= bulkHidden {
		t.Errorf("overlapped hidden time %v not above bulk %v", ovHidden, bulkHidden)
	}
}

// TestOverlapChaincfgToken: the per-chain "overlap" token is equivalent to
// the backend-wide Overlap flag for that chain — same clocks to the bit —
// and a config without the token stays on bulk delivery.
func TestOverlapChaincfgToken(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	run := func(cc *chaincfg.Config, overlap bool) *Backend {
		a := newMiniApp(m)
		a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
		b, err := New(Config{
			Prog: a.p, Primary: a.nodes, Assign: partition.KWay(m.NodeAdjacency(), 4), NParts: 4,
			Depth: 2, MaxChainLen: 4, CA: true, Machine: machine.ARCHER2(),
			Chains: cc, Overlap: overlap,
		})
		if err != nil {
			t.Fatal(err)
		}
		a.run(b, 2, true)
		return b
	}
	tok, err := chaincfg.ParseString("chain synth overlap\n")
	if err != nil {
		t.Fatal(err)
	}
	byToken := run(tok, false)
	byFlag := run(nil, true)
	plain := run(nil, false)
	tc, fc := byToken.Clocks(), byFlag.Clocks()
	for r := range tc {
		if tc[r] != fc[r] {
			t.Errorf("rank %d: token clock %v != flag clock %v", r, tc[r], fc[r])
		}
	}
	if byToken.MaxClock() >= plain.MaxClock() {
		t.Errorf("token run %v not below bulk run %v", byToken.MaxClock(), plain.MaxClock())
	}
}

// TestOverlapModelPrediction: the chain stats' model prediction must use
// the overlapped communication term when the executor overlaps — the
// prediction error against the measured chain time stays small in both
// modes, keeping the built-in model-validation experiment honest.
func TestOverlapModelPrediction(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	for _, mode := range []string{"ca", "ca-overlap"} {
		_, b := faultyResult(t, m, 2, nil, mode)
		cs := b.Stats().Chains["synth"]
		if cs == nil || cs.CAExecutions == 0 {
			t.Fatalf("%s: chain synth did not run CA: %+v", mode, cs)
		}
		if cs.Predicted <= 0 {
			t.Fatalf("%s: no model prediction accumulated", mode)
		}
		errPct := math.Abs(cs.Predicted-cs.Time) / cs.Time * 100
		if errPct > 35 {
			t.Errorf("%s: model prediction off by %.1f%% (predicted %g, measured %g)",
				mode, errPct, cs.Predicted, cs.Time)
		}
	}
}
