package bench

// ckpt.go gives the experiments checkpoint/restart: with CheckpointEvery and
// Ring set, every measured run snapshots its backend periodically through
// the verified generation ring, and with Resume set, the one run whose label
// matches the snapshot's resume point restores mid-measurement while every
// other run simply re-executes — the simulation is deterministic, so
// re-executed runs reproduce their results bitwise and the resumed
// invocation's checksums equal an uninterrupted run's.

import (
	"encoding/json"
	"io"

	"op2ca/internal/cluster"
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

// tick writes a periodic snapshot after a measured iteration completes.
// done counts completed measured iterations; ctx is the run's measurement
// baseline, restored verbatim on resume.
func (c Config) tick(b *cluster.Backend, label string, done int, ctx any) {
	if c.CheckpointEvery <= 0 || c.Ring == nil || done%c.CheckpointEvery != 0 {
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

// resume restores the pending snapshot when it belongs to the run labelled
// label, unmarshals the snapshot's measurement baseline into ctx, and
// returns the restored backend plus the number of measured iterations
// already complete. Any other run gets (nil, 0) and executes from scratch.
func (c Config) resume(label string, cfg cluster.Config, ctx any) (*cluster.Backend, int) {
	if c.Resume == nil {
		return nil, 0
	}
	var rp resumePoint
	if err := json.Unmarshal([]byte(c.Resume.Note), &rp); err != nil || rp.Label != label {
		return nil, 0
	}
	b, err := cluster.RestoreState(c.Resume, cfg)
	if err != nil {
		panic("bench: restore: " + err.Error())
	}
	c.adopt(b)
	if len(rp.Ctx) > 0 && ctx != nil {
		if err := json.Unmarshal(rp.Ctx, ctx); err != nil {
			panic("bench: restore: " + err.Error())
		}
	}
	return b, rp.Done
}

// open returns the backend a run executes on and the number of measured
// iterations already complete: restored from the pending snapshot when it
// belongs to the run labelled label (ctx then holds the snapshot's
// measurement baseline), else freshly constructed — fresh is true and the
// caller initialises it. The caller owns the backend and must Close it.
func (c Config) open(label string, cfg cluster.Config, ctx any) (b *cluster.Backend, start int, fresh bool) {
	if b, start = c.resume(label, cfg, ctx); b != nil {
		return b, start, false
	}
	b, err := cluster.New(cfg)
	if err != nil {
		panic("bench: " + err.Error())
	}
	return c.adopt(b), 0, true
}

// mgResumeCtx is runMGPoint's measurement baseline: the virtual-time and
// counter snapshot taken after warm-up, before the measured loop.
type mgResumeCtx struct {
	T0         float64 `json:"t0"`
	LoopBytes  int64   `json:"loop_bytes"`
	LoopCore   int64   `json:"loop_core"`
	LoopHalo   int64   `json:"loop_halo"`
	ChainBytes int64   `json:"chain_bytes"`
	ChainCore  int64   `json:"chain_core"`
	ChainHalo  int64   `json:"chain_halo"`
}

func mgCtxOf(t0 float64, s mgSnapshot) mgResumeCtx {
	return mgResumeCtx{T0: t0, LoopBytes: s.loopBytes, LoopCore: s.loopCore, LoopHalo: s.loopHalo,
		ChainBytes: s.chainBytes, ChainCore: s.chainCore, ChainHalo: s.chainHalo}
}

func (c mgResumeCtx) snapshot() mgSnapshot {
	return mgSnapshot{loopBytes: c.LoopBytes, loopCore: c.LoopCore, loopHalo: c.LoopHalo,
		chainBytes: c.ChainBytes, chainCore: c.ChainCore, chainHalo: c.ChainHalo}
}

// hydraResumeCtx is runHydraPoint's baseline: per-chain cumulative counters
// read after warm-up.
type hydraResumeCtx struct {
	Before map[string]hydraMeasJSON `json:"before"`
}

type hydraMeasJSON struct {
	Time  float64 `json:"time"`
	Comm  float64 `json:"comm"`
	Pmr   float64 `json:"pmr"`
	Core  float64 `json:"core"`
	Halo  float64 `json:"halo"`
	Execs int     `json:"execs"`
}

func measJSONOf(m hydraMeas) hydraMeasJSON {
	return hydraMeasJSON{Time: m.time, Comm: m.comm, Pmr: m.pmr, Core: m.core, Halo: m.halo, Execs: m.execs}
}

func (m hydraMeasJSON) meas() hydraMeas {
	return hydraMeas{time: m.Time, comm: m.Comm, pmr: m.Pmr, core: m.Core, halo: m.Halo, execs: m.Execs}
}

// synResumeCtx is runSyntheticOnce's baseline.
type synResumeCtx struct {
	T0 float64 `json:"t0"`
}
