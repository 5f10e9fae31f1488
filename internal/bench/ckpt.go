package bench

// ckpt.go gives the experiments checkpoint/restart: with Ring set, every
// measured run snapshots its backend periodically through the verified
// generation ring, and with Resume set, every run whose restore accepts the
// pending snapshot continues from it mid-measurement while every other run
// simply re-executes — the simulation is deterministic, so re-executed runs
// reproduce their results bitwise and the resumed invocation's checksums
// equal an uninterrupted run's.

import (
	"encoding/json"
	"errors"
	"io"

	"op2ca/internal/checkpoint"
	"op2ca/internal/cluster"
	"op2ca/internal/runspec"
)

// resumePoint is the JSON note a bench checkpoint carries: the invocation's
// measured iteration count and how many of them were complete, and the run's
// measurement baseline (taken before the measured loop, so a resumed run
// reports the same table values as an uninterrupted one). The label names the
// run for the -restore error message only: which runs may continue the
// snapshot is the restore's fingerprint check, not a name (see open).
type resumePoint struct {
	Label string          `json:"label"`
	Iters int             `json:"iters"`
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
	note, err := json.Marshal(resumePoint{Label: label, Iters: c.Iters, Done: done, Ctx: raw})
	if err != nil {
		panic("bench: " + err.Error())
	}
	if _, err := c.Ring.Write(func(w io.Writer) error {
		return b.Checkpoint(w, string(note))
	}); err != nil {
		panic("bench: checkpoint: " + err.Error())
	}
}

// open opens the backend a measured run executes on through build — restored
// from st, fresh when st is nil — and returns it with the number of measured
// iterations already complete. A pending snapshot whose note records this
// invocation's Iters is offered to every run: the run continues it when the
// restore accepts it (ctx then holds the snapshot's measurement baseline) and
// builds fresh when the restore refuses it as another configuration's. Runs
// that share a fingerprint must therefore share their loop and their
// baseline: the synthetic chain's one-level hierarchy sets its runs apart
// from the paper points' three levels, and every measured Hydra run goes
// through measureHydra. Either way the invocation's supervisor adopts the
// backend; the caller must Close it.
func (c Config) open(ctx any, build func(st *checkpoint.State) (*cluster.Backend, error)) (*cluster.Backend, int) {
	var rp resumePoint
	if c.Resume != nil && json.Unmarshal([]byte(c.Resume.State.Note), &rp) == nil && rp.Iters == c.Iters {
		b, err := build(c.Resume.State)
		if err == nil {
			if err := json.Unmarshal(rp.Ctx, ctx); err != nil {
				panic("bench: restore: " + err.Error())
			}
			c.Resume.Adopted++
			c.Sup.Adopt(b)
			return b, rp.Done
		}
		var refused *cluster.SnapshotError
		if !errors.As(err, &refused) || refused.Kind != cluster.ErrSnapshotConfig {
			panic("bench: " + err.Error())
		}
		// Another configuration's snapshot: this run starts fresh.
	}
	b, err := build(nil)
	if err != nil {
		panic("bench: " + err.Error())
	}
	c.Sup.Adopt(b)
	return b, 0
}

// openAttempt is open for a run the app its Spec names drives: the attempt
// over p, restored or fresh, and the measured iterations already complete.
func (c Config) openAttempt(r *runspec.Run, p *runspec.Problem, ctx any) (a *runspec.Attempt, start int) {
	_, start = c.open(ctx, func(st *checkpoint.State) (*cluster.Backend, error) {
		var err error
		if a, err = r.BuildOn(p, st); err != nil {
			return nil, err
		}
		return a.CB, nil
	})
	return a, start
}

// mgResumeCtx is runMGPoint's measurement baseline: the virtual-time and
// counter snapshot taken after warm-up, before the measured loop.
type mgResumeCtx struct {
	T0 float64 `json:"t0"`
	mgSnapshot
}

// hydraResumeCtx is the baseline of a measured Hydra run (measureHydra):
// the virtual time and per-chain cumulative counters read after warm-up.
type hydraResumeCtx struct {
	T0     float64              `json:"t0"`
	Before map[string]hydraMeas `json:"before"`
}

// synResumeCtx is runSyntheticOnce's baseline.
type synResumeCtx struct {
	T0 float64 `json:"t0"`
}
