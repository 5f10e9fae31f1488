package cluster

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"op2ca/internal/machine"
	"op2ca/internal/mesh"
	"op2ca/internal/obs"
	"op2ca/internal/partition"
)

// runTraced runs the mini-app on a 4-rank backend with the given machine and
// tracer, returning the backend.
func runTraced(t *testing.T, mach *machine.Machine, tracer *obs.Tracer,
	caMode, chain, parallel, gpuDirect bool) *Backend {
	t.Helper()
	m := mesh.Rotor(8, 6, 5)
	a := newMiniApp(m)
	a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
	assign := partition.KWay(m.NodeAdjacency(), 4)
	b, err := New(Config{
		Prog: a.p, Primary: a.nodes, Assign: assign, NParts: 4,
		Depth: 2, MaxChainLen: 4, CA: caMode, Parallel: parallel,
		Machine: mach, Tracer: tracer, GPUDirect: gpuDirect,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	a.run(b, 2, chain)
	return b
}

// TestTraceDeterminism: two identical runs must produce byte-identical
// Chrome trace JSON, even with parallel rank execution — span emission
// happens in the sequential post-processing code, and the export is
// canonically sorted and formatted.
func TestTraceDeterminism(t *testing.T) {
	export := func() []byte {
		tr := obs.New()
		runTraced(t, machine.ARCHER2(), tr, true, true, true, false)
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if len(a) == 0 || a[0] != '{' {
		t.Fatalf("trace export does not look like JSON: %q", a[:min(len(a), 40)])
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("identical runs produced different traces (%d vs %d bytes)", len(a), len(b))
	}
}

// TestTracingDoesNotPerturbClocks: enabling the tracer must leave every
// virtual clock bit-identical — tracing observes the arithmetic, never
// participates in it.
func TestTracingDoesNotPerturbClocks(t *testing.T) {
	cases := []struct {
		name      string
		mach      func() *machine.Machine
		gpuDirect bool
	}{
		{"archer2", machine.ARCHER2, false},
		{"cirrus-staged", machine.Cirrus, false},
		{"cirrus-gpudirect", machine.Cirrus, true},
	}
	for _, tc := range cases {
		for _, caMode := range []bool{false, true} {
			off := runTraced(t, tc.mach(), nil, caMode, true, false, tc.gpuDirect)
			on := runTraced(t, tc.mach(), obs.New(), caMode, true, false, tc.gpuDirect)
			if off.MaxClock() != on.MaxClock() {
				t.Errorf("%s ca=%v: MaxClock differs with tracing: %v vs %v",
					tc.name, caMode, off.MaxClock(), on.MaxClock())
			}
			co, cn := off.Clocks(), on.Clocks()
			for r := range co {
				if co[r] != cn[r] {
					t.Errorf("%s ca=%v: rank %d clock differs: %v vs %v",
						tc.name, caMode, r, co[r], cn[r])
				}
			}
		}
	}
}

// spanCounts tallies spans of one kind by name.
func spanCounts(tr *obs.Tracer, kind obs.Kind) map[string]int {
	counts := map[string]int{}
	for _, s := range tr.Spans() {
		if s.Kind == kind {
			counts[s.Name]++
		}
	}
	return counts
}

// TestChainGroupedSendSpans is the paper's Figure 5 vs Figure 8 contrast
// made structural: the CA chain sends exactly one grouped message per
// neighbour at chain start (send and wait spans named after the chain, one
// per message), while per-loop execution sends one message per loop per
// neighbour (spans named after each loop).
func TestChainGroupedSendSpans(t *testing.T) {
	// CA on: the chain's exchanges are grouped under the chain's name.
	tr := obs.New()
	b := runTraced(t, machine.ARCHER2(), tr, true, true, false, false)
	cs := b.Stats().Chains["synth"]
	if cs == nil || cs.CAExecutions == 0 {
		t.Fatalf("chain did not run CA: %+v", cs)
	}
	sends := spanCounts(tr, obs.Send)
	waits := spanCounts(tr, obs.Wait)
	if int64(sends["synth"]) != cs.Msgs {
		t.Errorf("CA chain: %d grouped send spans, want one per message (%d)", sends["synth"], cs.Msgs)
	}
	if int64(waits["synth"]) != cs.Msgs {
		t.Errorf("CA chain: %d wait spans, want one per message (%d)", waits["synth"], cs.Msgs)
	}
	if sends["update"] != 0 || sends["edge_flux"] != 0 ||
		sends["synth/update"] != 0 || sends["synth/edge_flux"] != 0 {
		t.Errorf("CA chain: chained loops must not send individually: %v", sends)
	}

	// CA off: the same chain falls back to per-loop exchanges, one message
	// stream per loop, attributed to chain-prefixed loop names.
	tr2 := obs.New()
	b2 := runTraced(t, machine.ARCHER2(), tr2, false, true, false, false)
	sends2 := spanCounts(tr2, obs.Send)
	if sends2["synth"] != 0 {
		t.Errorf("per-loop path must not emit grouped sends: %v", sends2)
	}
	var perLoop int64
	for key, ls := range b2.Stats().Loops {
		if strings.HasPrefix(key, "synth/") {
			perLoop += ls.Msgs
			if int64(sends2[key]) != ls.Msgs {
				t.Errorf("per-loop path: %d send spans for %s, want %d", sends2[key], key, ls.Msgs)
			}
		}
	}
	if perLoop <= cs.Msgs {
		t.Errorf("per-loop execution should send more messages than the grouped chain: %d vs %d",
			perLoop, cs.Msgs)
	}
}

// TestStageSpansOnGPU: staged GPU machines put PCIe transfers on the
// per-rank staging track; CPU machines and GPUDirect runs have none.
func TestStageSpansOnGPU(t *testing.T) {
	count := func(mach *machine.Machine, gpuDirect bool) int {
		tr := obs.New()
		runTraced(t, mach, tr, true, true, false, gpuDirect)
		n := 0
		for _, s := range tr.Spans() {
			if s.Track == obs.TrackStage {
				if s.Kind != obs.Stage {
					t.Errorf("non-stage span on staging track: %+v", s)
				}
				n++
			}
		}
		return n
	}
	if n := count(machine.Cirrus(), false); n == 0 {
		t.Error("staged GPU run produced no stage spans")
	}
	if n := count(machine.ARCHER2(), false); n != 0 {
		t.Errorf("CPU run produced %d stage spans", n)
	}
	if n := count(machine.Cirrus(), true); n != 0 {
		t.Errorf("GPUDirect run produced %d stage spans", n)
	}
}

// TestModelReport: the report pairs non-zero predictions with measurements
// for every loop and chain the backend executed.
func TestModelReport(t *testing.T) {
	b := runTraced(t, machine.ARCHER2(), nil, true, true, false, false)
	rep := b.ModelReport()
	if !strings.Contains(rep, "chain synth") {
		t.Fatalf("report missing chain line:\n%s", rep)
	}
	for _, name := range []string{"scale", "bnd_inc"} {
		if !strings.Contains(rep, "loop  "+name) {
			t.Errorf("report missing loop %s:\n%s", name, rep)
		}
	}
	cs := b.Stats().Chains["synth"]
	if cs.Predicted <= 0 {
		t.Errorf("chain prediction not accumulated: %+v", cs)
	}
	// The analytic model and the simulator share their cost terms; on this
	// small CPU mesh the prediction must land in the right ballpark.
	if ratio := cs.Predicted / cs.Time; ratio < 0.5 || ratio > 2 {
		t.Errorf("chain prediction off by more than 2x: predicted %v measured %v", cs.Predicted, cs.Time)
	}
	if !strings.Contains(rep, "aggregate over ") ||
		!strings.Contains(rep, "mean |err|") || !strings.Contains(rep, "max |err|") {
		t.Errorf("report missing aggregate error row:\n%s", rep)
	}
	// The aggregate must cover every loop and chain row printed above it.
	rows := 0
	for _, line := range strings.Split(rep, "\n") {
		if strings.HasPrefix(line, "loop ") || strings.HasPrefix(line, "chain ") {
			rows++
		}
	}
	if !strings.Contains(rep, fmt.Sprintf("aggregate over %d rows", rows)) {
		t.Errorf("aggregate row count != %d printed rows:\n%s", rows, rep)
	}
}

// TestStatsStringRendersExchangeFields: the compact report must include the
// exchange-shape counters (dats, neighbour and message maxima) that the
// model consumes.
func TestStatsStringRendersExchangeFields(t *testing.T) {
	b := runTraced(t, machine.ARCHER2(), nil, true, true, false, false)
	s := b.Stats().String()
	for _, want := range []string{"dats ", "nbmax ", "msgmax ", "rankmax "} {
		if !strings.Contains(s, want) {
			t.Errorf("Stats.String() missing %q:\n%s", want, s)
		}
	}
	cs := b.Stats().Chains["synth"]
	if cs.MaxMsgBytes == 0 || cs.MaxNeighbours == 0 || cs.MaxRankBytes == 0 || cs.DatsExchanged == 0 {
		t.Fatalf("chain exchange counters not populated: %+v", cs)
	}
}

// TestStatsWriteMetrics: the Prometheus exposition carries the loop and
// chain counters with their name labels.
func TestStatsWriteMetrics(t *testing.T) {
	b := runTraced(t, machine.ARCHER2(), nil, true, true, false, false)
	var buf bytes.Buffer
	mw := obs.NewMetricsWriter(&buf)
	b.Stats().WriteMetrics(mw, obs.Label{Key: "run", Value: "t"})
	if err := mw.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`op2ca_chain_executions_total{chain="synth",run="t"} 2`,
		`op2ca_chain_model_seconds_total{chain="synth",run="t"}`,
		`op2ca_loop_executions_total{loop="scale",run="t"} 2`,
		"# TYPE op2ca_chain_seconds_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}
