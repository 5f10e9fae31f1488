package bench

// overlap.go is the dedicated study of overlapped chain execution
// (runspec.Spec.Overlap: the chain's exchange delivered as a pipeline under
// netsim.Overlapped): the same comm-bound MG-CFD synthetic loop-chain
// configuration runs once bulk-synchronous and once overlapped, and the
// experiment reports virtual time, receiver-observed wait, hidden in-flight
// time and dat-checksum equality for both modes.
//
// Like the ablations, this study pins its knobs: faults, autotuning and
// checkpoint/resume are deliberately excluded so the two runs differ in the
// delivery pipeline alone.

import (
	"fmt"

	"op2ca/internal/obs"
	"op2ca/internal/runspec"
)

// overlapRun is one mode's measurement.
type overlapRun struct {
	clock, wait, hidden float64
	checksum            string
}

// OverlapStudy measures overlapped against bulk-synchronous chain exchange
// on a communication-bound configuration: the 8M-class mesh spread
// over the 64-paper-node ARCHER2 rank count (the strong-scaling regime where
// the paper's communication dominates its computation), 8 chained loops.
func OverlapStudy(c Config) *Table {
	const paperNodes = 64
	const nchains = 4
	ranks := c.ranksFor(paperNodes, archer().RanksPerNode)
	var p *runspec.Problem

	measure := func(overlap bool) overlapRun {
		mode := "bulk"
		if overlap {
			mode = "overlap"
		}
		label := fmt.Sprintf("overlap-study %s mesh=%d ranks=%d loops=%d",
			mode, c.Nodes8M, ranks, 2*nchains)
		run := c.resolve(runspec.Spec{App: "mgcfd", MeshNodes: c.Nodes8M, Levels: 3, NChains: nchains,
			Ranks: ranks, Backend: "ca", Iters: c.Iters, Overlap: overlap}, archer())
		run.Plan = nil // pinned fault-free, see above
		// The hidden-wait accounting reads message edges, so the run is
		// always traced — on the invocation's tracer when present (its
		// epochs keep backends separate), else on a private one.
		if run.Tracer == nil {
			run.Tracer = obs.New()
		}
		if p == nil {
			p = problem(run)
		}
		a, err := run.BuildOn(p, nil)
		if err != nil {
			panic("bench: " + err.Error())
		}
		defer a.Close()
		// No warm-up and no measured window: the study is the whole run.
		if err := a.Drive(nil); err != nil {
			panic("bench: " + err.Error())
		}
		b := a.CB
		r := overlapRun{clock: b.MaxClock(), checksum: b.ChecksumDats()}
		if prof := b.Profile(); prof != nil {
			for _, cc := range prof.Comm {
				r.wait += cc.Wait
				r.hidden += cc.WaitHidden
			}
		}
		c.observe(label, b)
		return r
	}
	bulk := measure(false)
	ov := measure(true)
	p.Release()

	equal := "equal"
	if bulk.checksum != ov.checksum {
		equal = "DIFFER"
	}
	return &Table{
		Title:  "Overlap: task-graph chain executor vs bulk-synchronous exchange (MG-CFD synthetic, ARCHER2)",
		Header: []string{"Mode", "t(s)", "wait(s)", "hidden(s)"},
		Rows: [][]string{
			{"bulk", f6(bulk.clock), f6(bulk.wait), f6(bulk.hidden)},
			{"overlap", f6(ov.clock), f6(ov.wait), f6(ov.hidden)},
		},
		Notes: []string{
			fmt.Sprintf("%d ranks, %d chained loops, %d iterations; dat checksums %s; gain %.2f%%",
				ranks, 2*nchains, c.Iters, equal, gain(bulk.clock, ov.clock)),
			"hidden = in-flight message time overlapped with computation (charged to no wait cause)",
		},
	}
}
