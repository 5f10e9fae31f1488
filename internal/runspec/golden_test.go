package runspec

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"op2ca/internal/cluster"
	"op2ca/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/rank_clocks.golden from this tree (a refactor of the executor must not need it on a CPU machine)")

const goldenPath = "testdata/rank_clocks.golden"

// goldenRow is one pinned run: a Spec plus the one ablation knob (GPUDirect)
// the rows vary that no Spec field names.
type goldenRow struct {
	name      string
	spec      Spec
	gpuDirect bool
}

// goldenRows lists the pinned runs: both apps under both back-ends on every
// machine model (Cirrus staged and with GPUDirect), fault-free and under a
// message-fault plan, plus per machine an overlapped CA run, an autotuned CA
// run and a CA run whose retransmission budget is small enough that chain
// exchanges give up and walk the degradation ladder.
func goldenRows() []goldenRow {
	const msgFaults = "drop=0.05,corrupt=0.01,seed=7"
	base := func(app, backend, machine string) Spec {
		s := Spec{App: app, MeshNodes: 3000, Ranks: 4, Backend: backend, Iters: 3, Machine: machine}
		if app == "mgcfd" {
			s.Levels, s.NChains = 2, 2
		}
		return s
	}
	var rows []goldenRow
	for _, m := range []struct {
		label, machine string
		gpuDirect      bool
	}{
		{"archer2", "archer2", false},
		{"laptop", "laptop", false},
		{"cirrus", "cirrus", false},
		{"cirrus+gpudirect", "cirrus", true},
	} {
		add := func(label string, s Spec) {
			rows = append(rows, goldenRow{name: label, spec: s, gpuDirect: m.gpuDirect})
		}
		for _, app := range []string{"mgcfd", "hydra"} {
			for _, backend := range []string{"op2", "ca"} {
				for _, f := range []struct{ label, plan string }{{"clean", ""}, {"faults", msgFaults}} {
					s := base(app, backend, m.machine)
					s.Faults = f.plan
					add(fmt.Sprintf("%s/%s/%s/%s", app, backend, m.label, f.label), s)
				}
			}
		}
		overlap := base("hydra", "ca", m.machine)
		overlap.Overlap, overlap.Faults = true, msgFaults
		add("hydra/ca+overlap/"+m.label+"/faults", overlap)
		tuned := base("mgcfd", "ca", m.machine)
		tuned.AutoTune = true
		add("mgcfd/ca+autotune/"+m.label+"/clean", tuned)
		ladder := base("hydra", "ca", m.machine)
		ladder.Faults = "drop=0.3,maxretries=1,seed=7"
		add("hydra/ca/"+m.label+"/ladder", ladder)
	}
	return rows
}

// run executes the row, traced or not, and renders what it pins: the bits of
// every rank clock, the exchange sequence number, the plan-cache counters,
// the dat checksum and the fault counters — and, traced, a hash over the
// tracer's spans and edges in canonical order.
func (g goldenRow) run(t *testing.T, problems map[string]*Problem, tr *obs.Tracer) (line string, faults cluster.FaultStats) {
	t.Helper()
	r, err := g.spec.Resolve()
	if err != nil {
		t.Fatalf("%s: %v", g.name, err)
	}
	r.GPUDirect, r.Tracer = g.gpuDirect, tr
	// Rows of one app share size, levels, ranks and partitioner: one Problem.
	p := problems[g.spec.App]
	if p == nil {
		if p, err = r.NewProblem(); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		problems[g.spec.App] = p
	}
	a, err := r.BuildFrom(p, nil)
	if err != nil {
		t.Fatalf("%s: %v", g.name, err)
	}
	defer a.Close()
	if err := a.Drive(nil); err != nil {
		t.Fatalf("%s: %v", g.name, err)
	}
	var sb strings.Builder
	sb.WriteString("clocks=")
	for i, c := range a.CB.Clocks() {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%016x", math.Float64bits(c))
	}
	hits, misses, inval := a.CB.PlanCacheStats()
	faults = a.CB.Stats().Faults
	fmt.Fprintf(&sb, "\tseq=%d\tplan=%d/%d/%d\tsum=%s\tfaults=%s", a.CB.ExchangeSeq(), hits, misses, inval,
		a.CB.ChecksumDats(), strings.ReplaceAll(faults.String(), " ", "_"))
	if tr != nil {
		fmt.Fprintf(&sb, "\ttrace=%016x", traceHash(tr))
	}
	return sb.String(), faults
}

// traceHash is FNV-1a over every field of every span and edge, in the
// tracer's canonical order.
func traceHash(tr *obs.Tracer) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, s := range tr.Spans() {
		u64(uint64(s.Epoch)<<40 | uint64(s.Rank)<<16 | uint64(uint8(s.Track))<<8 | uint64(s.Kind))
		h.Write([]byte(s.Name))
		u64(math.Float64bits(s.Begin))
		u64(math.Float64bits(s.End))
		u64(uint64(s.Bytes))
	}
	for _, e := range tr.Edges() {
		u64(uint64(e.Epoch)<<40 | uint64(e.From)<<24 | uint64(e.To)<<8 | uint64(e.Kind))
		h.Write([]byte(e.Name))
		for _, v := range []float64{e.Post, e.Begin, e.End, e.Ready} {
			u64(math.Float64bits(v))
		}
		u64(uint64(e.Bytes))
	}
	return h.Sum64()
}

// TestRankClockGolden pins the virtual clock bit for bit: every rank's clock
// after three iterations of each goldenRows run, with the counters and
// checksums beside it, against values captured before the per-loop executor
// became the one-loop case of the chain executor (PR 22). A traced run must
// show the clocks of the untraced one; its spans and edges are pinned too.
// The archer2 and laptop rows are the ones recorded at that PR's parent; the
// cirrus rows were re-pinned once, by that PR, when the shared walk took one
// association of the kernel-launch overhead (DESIGN.md 5).
func TestRankClockGolden(t *testing.T) {
	rows := goldenRows()
	problems := map[string]*Problem{}
	var got []string
	for _, g := range rows {
		plain, faults := g.run(t, problems, nil)
		traced, _ := g.run(t, problems, obs.New())
		if !strings.HasPrefix(traced, plain+"\ttrace=") {
			t.Errorf("%s: tracing moved the run:\nuntraced %s\ntraced   %s", g.name, plain, traced)
		}
		got = append(got, g.name+"\t"+traced)
		// A ladder row must recover some windows on the ungrouped rung and
		// take others down to per-loop execution, or it pins neither.
		if strings.HasSuffix(g.name, "/ladder") && !(faults.FallbackUngrouped > faults.FallbackPerLoop && faults.FallbackPerLoop > 0) {
			t.Errorf("%s does not exercise both degradation rungs: %s", g.name, faults)
		}
	}
	text := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("%s has %d rows, the test runs %d", goldenPath, len(wantLines), len(got))
	}
	for i, w := range wantLines {
		if got[i] != w {
			t.Errorf("row moved:\nwant %s\ngot  %s", w, got[i])
		}
	}
}
