package cluster

// checkpoint.go wires the backend into package checkpoint: Checkpoint
// snapshots the complete simulation state — per-rank dat values, halo
// validity, virtual clocks, the fault/exchange sequence counter, stats,
// plan-cache fingerprints and autotuner state — and Restore rebuilds a
// process-equivalent backend that continues exactly where the snapshot left
// off. The restore invariant: crash -> restore-from-last-checkpoint ->
// completion yields dat checksums bitwise identical to the uninterrupted
// run, under every execution policy (per-loop OP2, CA at any depth, grouped
// or ungrouped messages, lazy chains, parallel ranks, autotune mid-switch).
//
// What makes the invariant hold:
//   - Dat values and clocks are stored as IEEE-754 bit patterns (package
//     checkpoint), so no value changes in transit.
//   - FaultSeq keeps the deterministic fault schedule aligned: the resumed
//     run's exchanges draw the same verdicts as the uninterrupted run's.
//   - Plan-cache keys are restored as "warm" entries: the cached inspection
//     is rebuilt on first use (inspection is deterministic) but accounted as
//     a cache hit, so PlanCacheStats continue exactly.
//   - The autotuner's calibrator samples, probe counts, dirty-dat
//     observations, per-window parameters and committed decision are all
//     restored, so the tuner's future decisions match the uninterrupted
//     run's.
//   - The crash fault is disarmed on restore: the resumed run replays the
//     pre-crash exchange sequence numbers without dying again (the simulated
//     analogue of restarting on a replacement node).

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"op2ca/internal/autotune"
	"op2ca/internal/checkpoint"
	"op2ca/internal/model"
	"op2ca/internal/obs"
)

// configFingerprint is the canonical identity of a backend configuration:
// everything that shapes partitioning, halo layouts, execution policy or the
// virtual-time arithmetic. Restore refuses a snapshot whose fingerprint does
// not match the restoring configuration — resuming into a different mesh,
// machine or policy would silently break the restore invariant. Tracing,
// checkpointing knobs and host threading (Parallel) are deliberately
// excluded: they never feed back into results, clocks or stats, so a
// snapshot taken with a worker pool resumes on one host thread and back.
type configFingerprint struct {
	Version     int    `json:"version"`
	NParts      int    `json:"nparts"`
	Depth       int    `json:"depth"`
	MaxChainLen int    `json:"max_chain_len"`
	CA          bool   `json:"ca"`
	Lazy        bool   `json:"lazy"`
	AutoTune    bool   `json:"autotune"`
	GPUDirect   bool   `json:"gpudirect"`
	NoGrouped   bool   `json:"no_grouped_msgs"`
	NoPlanCache bool   `json:"no_plan_cache"`
	Overlap     bool   `json:"overlap,omitempty"`
	Machine     string `json:"machine"`
	// The machine's cost-model scalars guard against two custom machines
	// sharing a name.
	Latency        float64 `json:"latency"`
	Bandwidth      float64 `json:"bandwidth"`
	PackRate       float64 `json:"pack_rate"`
	EagerThreshold int64   `json:"eager_threshold"`
	Handshake      float64 `json:"handshake,omitempty"`
	GPU            bool    `json:"gpu"`
	// Faults is the plan spec normalised to its message-fault content: the
	// crash clause is stripped (a resume must not require re-specifying the
	// crash that killed the original run), and a plan left injecting
	// nothing renders as "".
	Faults string `json:"faults"`
	// Resolved retry knobs (defaults applied), not the raw Config values:
	// a crash-only plan carrying maxretries would otherwise fingerprint
	// equal to a no-fault resume config with a different effective budget.
	MaxRetries   int     `json:"max_retries"`
	RetryTimeout float64 `json:"retry_timeout"`
	RetryBackoff float64 `json:"retry_backoff"`
	Chains       string  `json:"chains"`
	ProbeWindows int     `json:"probe_windows"`
	ReplanPct    float64 `json:"replan_pct"`
	// Mesh and data identity: sets, dats and the partition assignment.
	Primary    string  `json:"primary"`
	Sets       []fpSet `json:"sets"`
	Dats       []fpDat `json:"dats"`
	AssignHash string  `json:"assign_hash"`
}

type fpSet struct {
	Name string `json:"name"`
	Size int    `json:"size"`
}

type fpDat struct {
	Name string `json:"name"`
	Set  string `json:"set"`
	Dim  int    `json:"dim"`
}

func (b *Backend) configFingerprint() ([]byte, error) {
	cfg := b.cfg
	fp := configFingerprint{
		Version:        checkpoint.Version,
		NParts:         cfg.NParts,
		Depth:          cfg.Depth,
		MaxChainLen:    cfg.MaxChainLen,
		CA:             cfg.CA,
		Lazy:           cfg.Lazy,
		AutoTune:       cfg.AutoTune,
		GPUDirect:      cfg.GPUDirect,
		NoGrouped:      cfg.NoGroupedMsgs,
		NoPlanCache:    cfg.NoPlanCache,
		Overlap:        cfg.Overlap,
		Machine:        cfg.Machine.Name,
		Latency:        cfg.Machine.Latency,
		Bandwidth:      cfg.Machine.Bandwidth,
		PackRate:       cfg.Machine.PackRate,
		EagerThreshold: cfg.Machine.EagerThreshold,
		Handshake:      cfg.Machine.Handshake,
		GPU:            cfg.Machine.GPU != nil,
		Faults:         normalizedFaultSpec(cfg),
		MaxRetries:     b.maxRetries,
		RetryTimeout:   b.retryTimeout,
		RetryBackoff:   b.retryBackoff,
		ProbeWindows:   cfg.Tune.WithDefaults().ProbeWindows,
		ReplanPct:      cfg.Tune.WithDefaults().ReplanPct,
		Primary:        cfg.Primary.Name,
	}
	if cfg.Chains != nil {
		fp.Chains = cfg.Chains.String()
	}
	for _, s := range cfg.Prog.Sets {
		fp.Sets = append(fp.Sets, fpSet{Name: s.Name, Size: s.Size})
	}
	for _, d := range cfg.Prog.Dats {
		fp.Dats = append(fp.Dats, fpDat{Name: d.Name, Set: d.Set.Name, Dim: d.Dim})
	}
	h := fnv.New64a()
	var buf [4]byte
	for _, a := range cfg.Assign {
		binary.LittleEndian.PutUint32(buf[:], uint32(a))
		h.Write(buf[:])
	}
	fp.AssignHash = fmt.Sprintf("%016x", h.Sum64())
	return checkpoint.MarshalFingerprint(fp)
}

// normalizedFaultSpec renders the fault plan with the crash clauses
// stripped; a plan left injecting no message faults renders as "", so a
// crash-only plan fingerprints equal to no plan at all (the resume
// configuration).
func normalizedFaultSpec(cfg Config) string {
	p := cfg.Faults
	if p == nil {
		return ""
	}
	stripped := *p
	stripped.Crashes = nil
	if !stripped.Enabled() {
		return ""
	}
	return stripped.String()
}

// ckptMeta is the backend-defined continuation blob of a snapshot: stats,
// plan-cache state and autotuner state, JSON-encoded (encoding/json sorts
// map keys, so equal states produce equal bytes).
type ckptMeta struct {
	Stats             *Stats        `json:"stats"`
	PlanHits          int64         `json:"plan_hits"`
	PlanMisses        int64         `json:"plan_misses"`
	PlanInvalidations int64         `json:"plan_invalidations"`
	Plans             []ckptPlanKey `json:"plans,omitempty"`
	Tunes             []ckptTune    `json:"tunes,omitempty"`
}

type ckptPlanKey struct {
	Chain string `json:"chain"`
	Sig   string `json:"sig"`
}

// ckptTune is one chain's serialised autotuner state.
type ckptTune struct {
	Chain     string                   `json:"chain"`
	Sig       string                   `json:"sig"`
	Skip      bool                     `json:"skip,omitempty"`
	Probes    int                      `json:"probes"`
	Dirty     []int                    `json:"dirty,omitempty"`
	Op2Params []ckptTunedLoop          `json:"op2_params,omitempty"`
	Decision  *autotune.Decision       `json:"decision,omitempty"`
	Cal       autotune.CalibratorState `json:"cal"`
}

type ckptTunedLoop struct {
	Kernel string           `json:"kernel"`
	Params model.LoopParams `json:"params"`
}

// Checkpoint writes a complete snapshot of the backend's state to w. Lazily
// queued loops are flushed first (the snapshot captures a well-defined
// synchronisation point); an open explicit chain is an error — there is no
// mid-chain state a restore could resume into. note is caller-defined resume
// context returned verbatim by Restore.
func (b *Backend) Checkpoint(w io.Writer, note string) error {
	if b.rec != nil {
		return fmt.Errorf("cluster: cannot checkpoint inside open chain %q", b.rec.name)
	}
	b.FlushLazy()
	fp, err := b.configFingerprint()
	if err != nil {
		return err
	}
	st := &checkpoint.State{
		Fingerprint:  fp,
		Note:         note,
		FaultSeq:     b.faultSeq,
		Clocks:       b.clock,
		ValidExec:    make([]int64, len(b.valid)),
		ValidNonexec: make([]int64, len(b.valid)),
		Dats:         b.dats,
	}
	for i, v := range b.valid {
		st.ValidExec[i] = int64(v.exec)
		st.ValidNonexec[i] = int64(v.nonexec)
	}
	meta := ckptMeta{
		Stats:             b.stats,
		PlanHits:          b.planHits,
		PlanMisses:        b.planMisses,
		PlanInvalidations: b.planInvalidations,
	}
	for _, e := range b.plans {
		meta.Plans = append(meta.Plans, ckptPlanKey{Chain: e.key.chain, Sig: e.key.sig})
	}
	for key := range b.warmPlans {
		// Warm keys not yet rebuilt carry over: the uninterrupted run still
		// holds their entries.
		meta.Plans = append(meta.Plans, ckptPlanKey{Chain: key.chain, Sig: key.sig})
	}
	sort.Slice(meta.Plans, func(i, j int) bool {
		if meta.Plans[i].Chain != meta.Plans[j].Chain {
			return meta.Plans[i].Chain < meta.Plans[j].Chain
		}
		return meta.Plans[i].Sig < meta.Plans[j].Sig
	})
	for key, ct := range b.tunes {
		t := ckptTune{
			Chain:  key.chain,
			Sig:    key.sig,
			Skip:   ct.skip,
			Probes: ct.probes,
			Cal:    ct.cal.State(),
		}
		for id := range ct.dirty {
			t.Dirty = append(t.Dirty, id)
		}
		sort.Ints(t.Dirty)
		for _, tl := range ct.op2Params {
			t.Op2Params = append(t.Op2Params, ckptTunedLoop{Kernel: tl.kernel, Params: tl.p})
		}
		t.Decision = ct.decision
		meta.Tunes = append(meta.Tunes, t)
	}
	sort.Slice(meta.Tunes, func(i, j int) bool {
		if meta.Tunes[i].Chain != meta.Tunes[j].Chain {
			return meta.Tunes[i].Chain < meta.Tunes[j].Chain
		}
		return meta.Tunes[i].Sig < meta.Tunes[j].Sig
	})
	st.Meta, err = checkpoint.MarshalFingerprint(meta)
	if err != nil {
		return err
	}
	n, err := checkpoint.Encode(w, st)
	if err != nil {
		return err
	}
	b.stats.Ckpt.Checkpoints++
	b.stats.Ckpt.CheckpointBytes += n
	if b.tracer.Enabled() {
		t := b.maxClock()
		b.tracer.Emit(0, obs.TrackExec, obs.Checkpoint, note, t, t, n)
	}
	return nil
}

// Restore decodes one snapshot from r and rebuilds a backend from it under
// cfg, returning the backend and the snapshot's note. cfg must be
// process-equivalent to the checkpointing configuration (same mesh,
// partition, machine, policies and retry knobs — verified against the
// snapshot's fingerprint); the fault plan may differ only by the crash
// clause, which a resumed run drops.
func Restore(r io.Reader, cfg Config) (*Backend, string, error) {
	st, err := checkpoint.Decode(r)
	if err != nil {
		return nil, "", err
	}
	b, err := RestoreState(st, cfg)
	if err != nil {
		return nil, "", err
	}
	return b, st.Note, nil
}

// RestoreState rebuilds a backend from an already-decoded snapshot.
func RestoreState(st *checkpoint.State, cfg Config) (*Backend, error) {
	b, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := b.restoreFrom(st); err != nil {
		b.Close()
		return nil, err
	}
	return b, nil
}

// restoreFrom overwrites a freshly constructed backend's state with the
// snapshot's, after checking the snapshot was taken under the same
// configuration.
func (b *Backend) restoreFrom(st *checkpoint.State) error {
	fp, err := b.configFingerprint()
	if err != nil {
		return err
	}
	if !bytes.Equal(fp, st.Fingerprint) {
		return fmt.Errorf("cluster: checkpoint fingerprint mismatch:\n  snapshot: %s\n  config:   %s",
			st.Fingerprint, fp)
	}
	if len(st.Clocks) != len(b.clock) {
		return fmt.Errorf("cluster: checkpoint has %d clocks, config builds %d", len(st.Clocks), len(b.clock))
	}
	copy(b.clock, st.Clocks)
	if len(st.ValidExec) != len(b.valid) {
		return fmt.Errorf("cluster: checkpoint has %d validity entries, config builds %d", len(st.ValidExec), len(b.valid))
	}
	for i := range b.valid {
		b.valid[i] = validity{exec: int(st.ValidExec[i]), nonexec: int(st.ValidNonexec[i])}
	}
	b.faultSeq = st.FaultSeq
	if len(st.Dats) != len(b.dats) {
		return fmt.Errorf("cluster: checkpoint has %d ranks of data, config builds %d", len(st.Dats), len(b.dats))
	}
	for r := range b.dats {
		if len(st.Dats[r]) != len(b.dats[r]) {
			return fmt.Errorf("cluster: checkpoint rank %d has %d dats, config builds %d", r, len(st.Dats[r]), len(b.dats[r]))
		}
		for d := range b.dats[r] {
			if len(st.Dats[r][d]) != len(b.dats[r][d]) {
				return fmt.Errorf("cluster: checkpoint rank %d dat %d has %d values, config builds %d",
					r, d, len(st.Dats[r][d]), len(b.dats[r][d]))
			}
			copy(b.dats[r][d], st.Dats[r][d])
		}
	}
	var meta ckptMeta
	if err := json.Unmarshal(st.Meta, &meta); err != nil {
		return fmt.Errorf("cluster: checkpoint meta: %w", err)
	}
	if meta.Stats != nil {
		b.stats = meta.Stats
		if b.stats.Loops == nil {
			b.stats.Loops = map[string]*LoopStats{}
		}
		if b.stats.Chains == nil {
			b.stats.Chains = map[string]*ChainStats{}
		}
		if b.stats.AutoTune.Decisions == nil {
			b.stats.AutoTune.Decisions = map[string]*autotune.Decision{}
		}
		if b.stats.AutoTune.Skipped == nil {
			b.stats.AutoTune.Skipped = map[string]string{}
		}
	}
	b.planHits = meta.PlanHits
	b.planMisses = meta.PlanMisses
	b.planInvalidations = meta.PlanInvalidations
	for _, k := range meta.Plans {
		b.warmPlans[planKey{chain: k.Chain, sig: k.Sig}] = true
	}
	for _, t := range meta.Tunes {
		ct := &chainTune{
			chain:  t.Chain,
			cfg:    b.cfg.Tune.WithDefaults(),
			cal:    autotune.NewCalibratorFromState(t.Cal),
			skip:   t.Skip,
			probes: t.Probes,
			dirty:  map[int]bool{},
		}
		for _, id := range t.Dirty {
			ct.dirty[id] = true
		}
		for _, tl := range t.Op2Params {
			ct.op2Params = append(ct.op2Params, tunedLoop{kernel: tl.Kernel, p: tl.Params})
		}
		ct.decision = t.Decision
		if ct.decision != nil {
			// Re-establish pointer identity with the stats map, so in-place
			// window/measurement updates keep showing in AutoTuneStats as
			// they do in an uninterrupted run.
			b.stats.AutoTune.Decisions[ct.chain] = ct.decision
		}
		b.tunes[tuneKey{chain: t.Chain, sig: t.Sig}] = ct
	}
	// A restored backend never re-fires the crash that produced it: the
	// resumed run replays the pre-crash exchange sequence without dying.
	// Disarm every clause; a supervisor re-arms the unfired ones via
	// ArmCrashes so the rest of a multi-crash schedule still fires.
	b.crashArmed = nil
	b.stats.Ckpt.Restores++
	if b.tracer.Enabled() {
		t := b.maxClock()
		b.tracer.Emit(0, obs.TrackExec, obs.Restore, st.Note, t, t, 0)
	}
	return nil
}
