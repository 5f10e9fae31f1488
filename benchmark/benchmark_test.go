package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(vals, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if vals[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing is not 0")
	}
}

// The highest percentile reported must leave ten samples beyond it.
func TestHighPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i)
		}
		return v
	}
	for _, tc := range []struct {
		n     int
		wantP float64
	}{{1000, 0.9}, {100, 0.9}, {50, 0.8}, {25, 0.6}, {20, 0.5}, {12, 0.5}, {1, 0.5}} {
		p, v := highPercentile(seq(tc.n), 0.9)
		if math.Abs(p-tc.wantP) > 1e-12 {
			t.Errorf("n=%d: percentile %v, want %v", tc.n, p, tc.wantP)
		}
		if want := percentile(seq(tc.n), p); v != want {
			t.Errorf("n=%d: value %v, want %v", tc.n, v, want)
		}
		if beyond := float64(tc.n) * (1 - p); tc.n >= 2*tailSamples && beyond < tailSamples-1e-9 {
			t.Errorf("n=%d: only %v samples beyond p%v", tc.n, beyond, 100*p)
		}
	}
}

// quartileSpread must agree with Python's statistics.quantiles(v, n=4), which
// is what the acceptance check uses.
func TestQuartileSpread(t *testing.T) {
	// quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	if got := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
	// quantiles([10, 12, 11, 13, 40], n=4) = [10.5, 12.0, 26.5]
	if got := quartileSpread([]float64{10, 12, 11, 13, 40}); math.Abs(got-16.0/12) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, 16.0/12)
	}
	if quartileSpread([]float64{3}) != 0 {
		t.Error("one value has a spread")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0}, // overlaps a: 10..50 is covered once
		{Name: "a.child", Start: 12, End: 20, Parent: 1},
		{Name: "late", Start: 90, End: 120, Parent: 0}, // clipped to its parent
	}
	want := []time.Duration{50, 12, 30, 8, 30}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder()
	rec.nextOp()
	outer := rec.begin("outer")
	rec.end(rec.begin("inner"))
	rec.end(outer)
	if len(rec.spans) != 2 || rec.spans[1].Parent != 0 || rec.spans[0].Parent != -1 || rec.spans[1].Op != 1 {
		t.Fatalf("spans = %+v", rec.spans)
	}
	var none *recorder
	none.end(none.begin("ignored")) // a nil recorder records nothing
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := rec.writeChromeTrace(path); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	data, _ := os.ReadFile(path)
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) != 2 {
		t.Fatalf("trace file: %v, %d events", err, len(doc.TraceEvents))
	}
}

// The same seed must give byte-identical inputs, another seed other inputs.
func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		encode := func(seed int64) string {
			in, err := generate(w.name, seed, fullSizes)
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(in)
			if err != nil {
				t.Fatal(err)
			}
			return string(data)
		}
		if encode(7) != encode(7) {
			t.Errorf("%s: seed 7 generated two different inputs", w.name)
		}
		if encode(7) == encode(8) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.name)
		}
	}
	if _, err := generate("no-such-workload", 1, fullSizes); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestJobCycleMix(t *testing.T) {
	in, _ := generate("serve-mixed", 3, fullSizes)
	crash, drop, overlap := 0, 0, 0
	templates := map[string]int{}
	for _, j := range in.Jobs {
		if _, err := j.Validate(); err != nil {
			t.Errorf("generated spec rejected: %v", err)
		}
		switch {
		case len(j.Faults) > 5 && j.Faults[:5] == "crash":
			crash++
		case j.Faults != "":
			drop++
		}
		if j.Overlap {
			overlap++
			if j.Backend != "ca" {
				t.Error("overlap on an OP2 job")
			}
		}
		templates[specKey(j)]++
	}
	if len(in.Jobs) != 16 || crash != 1 || drop != 2 || overlap != 2 {
		t.Errorf("cycle of %d jobs: %d crash, %d drop, %d overlap", len(in.Jobs), crash, drop, overlap)
	}
	if len(templates) != 13 { // 8 clean templates, 3 of them twice, plus 5 variants
		t.Errorf("%d distinct templates, want 13", len(templates))
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	for _, tc := range []struct {
		name       string
		d          metricDef
		base, cand []float64
		want       string
	}{
		{"same", lower, steady, steady, verdictOK},
		{"5% slower", lower, steady, scale(steady, 1.05), verdictOK},
		{"20% slower", lower, steady, scale(steady, 1.2), verdictWorse},
		{"20% faster", lower, steady, scale(steady, 0.8), verdictOK},
		{"throughput down 20%", higher, steady, scale(steady, 0.8), verdictWorse},
		{"throughput up 20%", higher, steady, scale(steady, 1.2), verdictOK},
		{"noisy base", lower, []float64{80, 120, 90, 130, 100, 70, 125, 85, 115, 95}, scale(steady, 1.2), verdictUnresolved},
	} {
		if _, _, got := judge(tc.d, tc.base, tc.cand); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}

	virt := metricDef{Name: "virt_ms_per_op", Better: "lower", Bound: 0.05}
	base := map[int64]float64{1: 4.0, 2: 4.1, 3: 4.2}
	if _, n, v := judgeExact(virt, base, map[int64]float64{1: 4.0, 2: 4.1 * (1 + 1e-13), 9: 7}); n != 2 || v != verdictOK {
		t.Errorf("identical per seed: %d common, verdict %s", n, v)
	}
	if _, _, v := judgeExact(virt, base, map[int64]float64{1: 4.0, 2: 4.1001}); v != verdictWorse {
		t.Errorf("one seed 0.002%% slower on the virtual clock: verdict %s", v)
	}
	if _, _, v := judgeExact(virt, base, map[int64]float64{1: 3.9}); v != verdictOK {
		t.Errorf("faster on the virtual clock: verdict %s", v)
	}
}

// compareFiles must fail a file with a worse metric or more failed ops.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opMS float64, failed int) string {
		f := resultFile{}
		for seed := int64(1); seed <= 3; seed++ {
			m := newMetricSet(endToEndDefs)
			for _, d := range endToEndDefs {
				m.set(d.Name, 1)
			}
			m.set("op_ms_p50", opMS+0.01*float64(seed))
			f.Runs = append(f.Runs, &result{Workload: "mgcfd-ranks", Seed: seed, Correct: failed == 0,
				Attempted: 100, Failed: failed, Metrics: m.export()})
		}
		path := filepath.Join(dir, name)
		if err := f.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 10, 0)
	devnull, _ := os.Open(os.DevNull)
	defer devnull.Close()
	for _, tc := range []struct {
		name string
		path string
		want int
	}{
		{"same", base, 0},
		{"slower", write("slow.json", 13, 0), 1},
		{"faster", write("fast.json", 8, 0), 0},
		{"failing", write("fail.json", 10, 5), 1},
	} {
		if got := compareFiles(devnull, base, tc.path); got != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.want)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json repeats the tables in metrics.go and main.go; the two must
// not drift, and both must stay inside the benchmark contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in main.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %s breaks the contract's limits", w.name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v, want %v", kind, d.Name, g.Bound, d.Bound)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] ||
				(d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s %s breaks the contract's limits", kind, d.Name)
			}
			seen[d.Name] = true
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndDefs, true)
	check("per_layer", doc.PerLayer, perLayerDefs, false)
	if len(endToEndDefs) > 16 || len(perLayerDefs) > 128 || endToEndDefs[0].Name != "setup_s" {
		t.Error("metric tables break the contract's limits")
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}

// A -smoke pass of all four workloads in both modes: every named metric is
// present, no op fails, the span file is written, and nothing is left
// running (a Parallel backend that was not closed would leave its pool).
func TestSmoke(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx := &runCtx{seed: 1, seconds: 0.4, smoke: true, sz: smokeSizes, setups: 2, outDir: t.TempDir()}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			res, err := runOne(w, ctx, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, %d of %d failed: %v", w.name, traced, res.Correct, res.Failed, res.Attempted, res.Notes)
			}
			defs := endToEndDefs
			if traced {
				defs = perLayerDefs
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v", w.name, traced, d.Name, m)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, m.Value)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(ctx.outDir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
	left, _ := os.ReadDir(ctx.outDir)
	if len(left) != len(workloads) {
		t.Errorf("run left %d entries in the output directory, want the %d span files", len(left), len(workloads))
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines before the smoke pass, %d after", before, n)
	}
}
