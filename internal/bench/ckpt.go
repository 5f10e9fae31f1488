package bench

// ckpt.go gives the experiments checkpoint/restart: with Ring set, every
// measured run snapshots its backend periodically through the verified
// generation ring, and with Resume set, the one run whose label matches the
// snapshot's resume point restores mid-measurement while every other run
// simply re-executes — the simulation is deterministic, so re-executed runs
// reproduce their results bitwise and the resumed invocation's checksums
// equal an uninterrupted run's.

import (
	"encoding/json"
	"io"

	"op2ca/internal/checkpoint"
	"op2ca/internal/cluster"
	"op2ca/internal/runspec"
)

// resumePoint is the JSON note a bench checkpoint carries: which measured
// run the snapshot belongs to, how many measured iterations were complete,
// and the run's measurement baseline (taken before the measured loop, so a
// resumed run reports the same table values as an uninterrupted one).
type resumePoint struct {
	Label string          `json:"label"`
	Done  int             `json:"done"`
	Ctx   json.RawMessage `json:"ctx,omitempty"`
}

// Resume is a snapshot to continue from, and how many runs did: a snapshot
// file a user names must be adopted by some run of the invocation, while a
// supervisor's recovery scan legitimately returns generations of runs that
// already completed.
type Resume struct {
	State   *checkpoint.State
	Adopted int
}

// Label names the measured run the snapshot belongs to ("" when its note is
// not a bench resume point).
func (r *Resume) Label() string {
	var rp resumePoint
	_ = json.Unmarshal([]byte(r.State.Note), &rp) // a foreign note leaves the label empty
	return rp.Label
}

// tick writes a periodic snapshot after a measured iteration completes.
// done counts completed measured iterations; ctx is the run's measurement
// baseline, restored verbatim on resume. The ring stages the generation here
// and commits it behind the iterations that follow, so the error of a commit
// surfaces at the next tick, or where the ring's owner flushes it:
// supervise.Runner after every attempt, op2ca-bench before it reports the
// invocation complete.
func (c Config) tick(b *cluster.Backend, label string, done int, ctx any) {
	if c.Ring == nil {
		return
	}
	if every := c.Ring.Spec().Every; every <= 0 || done%every != 0 {
		return
	}
	raw, err := json.Marshal(ctx)
	if err != nil {
		panic("bench: " + err.Error())
	}
	note, err := json.Marshal(resumePoint{Label: label, Done: done, Ctx: raw})
	if err != nil {
		panic("bench: " + err.Error())
	}
	if _, err := c.Ring.Write(func(w io.Writer) error {
		return b.Checkpoint(w, string(note))
	}); err != nil {
		panic("bench: checkpoint: " + err.Error())
	}
}

// resumeFor returns the pending snapshot and its count of completed measured
// iterations when it belongs to the run labelled label, unmarshalling the
// snapshot's measurement baseline into ctx. Any other run gets (nil, 0) and
// executes from scratch.
func (c Config) resumeFor(label string, ctx any) (*checkpoint.State, int) {
	if c.Resume == nil {
		return nil, 0
	}
	var rp resumePoint
	if err := json.Unmarshal([]byte(c.Resume.State.Note), &rp); err != nil || rp.Label != label {
		return nil, 0
	}
	if len(rp.Ctx) > 0 {
		if err := json.Unmarshal(rp.Ctx, ctx); err != nil {
			panic("bench: restore: " + err.Error())
		}
	}
	c.Resume.Adopted++
	return c.Resume.State, rp.Done
}

// open returns the attempt a measured run executes on — r's app over p —
// and the number of measured iterations already complete: restored from the
// pending snapshot when it belongs to the run labelled label (ctx then
// holds the snapshot's measurement baseline), else freshly built — fresh is
// true and the caller initialises and warms it up. Either way the
// invocation's supervisor adopts the backend. The caller owns the attempt
// and must Close it.
func (c Config) open(r *runspec.Run, p *runspec.Problem, label string, ctx any) (a *runspec.Attempt, start int, fresh bool) {
	st, start := c.resumeFor(label, ctx)
	a, err := r.BuildOn(p, st)
	if err != nil {
		panic("bench: " + err.Error())
	}
	c.Sup.Adopt(a.CB)
	return a, start, st == nil
}

// mgResumeCtx is runMGPoint's measurement baseline: the virtual-time and
// counter snapshot taken after warm-up, before the measured loop.
type mgResumeCtx struct {
	T0 float64 `json:"t0"`
	mgSnapshot
}

// hydraResumeCtx is runHydraPoint's baseline: per-chain cumulative counters
// read after warm-up.
type hydraResumeCtx struct {
	Before map[string]hydraMeas `json:"before"`
}

// synResumeCtx is runSyntheticOnce's baseline.
type synResumeCtx struct {
	T0 float64 `json:"t0"`
}
