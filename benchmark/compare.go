package main

import (
	"fmt"
	"io"
	"math"
)

// exactMetrics repeat bit for bit for a given seed: the simulators are
// deterministic. -compare holds them to identity per seed instead of to the
// bound, which only has to cover how far they differ from seed to seed.
var exactMetrics = map[string]bool{"virt_ms_per_op": true, "ca_speedup_x": true}

const exactTol = 1e-9

// verdict of one workload x metric pair.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares two sets of values of one metric. It returns how much worse
// the new median is as a share of the base median (negative: better), the
// wider of the two sets' own quartile spreads, and the verdict: worse when
// the new median is worse by more than the bound, unresolved when either
// set's spread exceeds the bound so a difference of that size cannot be told
// from noise.
func judge(d metricDef, base, cand []float64) (worseBy, spread float64, verdict string) {
	b, c := median(base), median(cand)
	worseBy = ratio(c-b, math.Abs(b))
	if d.Better == "higher" {
		worseBy = -worseBy
	}
	spread = math.Max(quartileSpread(base), quartileSpread(cand))
	switch {
	case spread > d.Bound:
		verdict = verdictUnresolved
	case worseBy > d.Bound:
		verdict = verdictWorse
	default:
		verdict = verdictOK
	}
	return
}

// judgeExact compares a deterministic metric seed by seed. Any seed on which
// it got worse makes it worse; moving the other way is a change of the
// simulated system, not a regression.
func judgeExact(d metricDef, base, cand map[int64]float64) (worseBy float64, common int, verdict string) {
	verdict = verdictOK
	for seed, b := range base {
		c, ok := cand[seed]
		if !ok {
			continue
		}
		common++
		w := ratio(c-b, math.Abs(b))
		if d.Better == "higher" {
			w = -w
		}
		if w > worseBy {
			worseBy = w
		}
	}
	if worseBy > exactTol {
		verdict = verdictWorse
	}
	return
}

// compareFiles prints one row per workload and end-to-end metric and returns
// the exit code: 1 if any pair is worse or more ops failed than in the base.
func compareFiles(w io.Writer, basePath, candPath string) int {
	base, err := readResultFile(basePath)
	if err != nil {
		fatal(err)
	}
	cand, err := readResultFile(candPath)
	if err != nil {
		fatal(err)
	}
	if base.Env.CPUModel != cand.Env.CPUModel || base.Env.NProc != cand.Env.NProc {
		fmt.Fprintf(w, "note: the files come from different machines (%s x%d, %s x%d); host-clock rows compare calibrated times\n",
			base.Env.CPUModel, base.Env.NProc, cand.Env.CPUModel, cand.Env.NProc)
	}
	exit := 0
	fmt.Fprintf(w, "%-14s %-16s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "base", "new", "worse%", "bound%", "spread%", "verdict")
	for _, wl := range workloads {
		b, c := base.untraced(wl.name), cand.untraced(wl.name)
		if len(b) == 0 || len(c) == 0 {
			continue
		}
		for _, d := range endToEndDefs {
			bv, cv := valuesOf(b, d.Name), valuesOf(c, d.Name)
			worseBy, spread, verdict := judge(d, bv, cv)
			bound := fmt.Sprintf("%.0f", 100*d.Bound)
			if exactMetrics[d.Name] {
				if w, common, v := judgeExact(d, bySeed(b, d.Name), bySeed(c, d.Name)); common > 0 {
					worseBy, verdict, bound = w, v, "exact"
				}
			}
			if verdict == verdictWorse {
				exit = 1
			}
			fmt.Fprintf(w, "%-14s %-16s %12.6g %12.6g %+8.2f %7s %7.2f  %s\n", wl.name, d.Name,
				median(bv), median(cv), 100*worseBy, bound, 100*spread, verdict)
		}
		if bf, cf := failShare(b), failShare(c); cf > bf {
			fmt.Fprintf(w, "%-14s failed ops: %.4g of attempted, up from %.4g\n", wl.name, cf, bf)
			exit = 1
		}
	}
	return exit
}

// untraced returns the file's end-to-end runs of one workload.
func (f *resultFile) untraced(workload string) []*result {
	var out []*result
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

// valuesOf lists the metric's value in every run.
func valuesOf(runs []*result, name string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

// bySeed maps seed to the metric's value; a seed run twice keeps the last.
func bySeed(runs []*result, name string) map[int64]float64 {
	out := map[int64]float64{}
	for _, r := range runs {
		out[r.Seed] = r.Metrics[name].Value
	}
	return out
}

func failShare(runs []*result) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted, failed = attempted+r.Attempted, failed+r.Failed
	}
	return ratio(float64(failed), float64(attempted))
}
