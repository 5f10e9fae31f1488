package cluster

// checkpoint.go wires the backend into package checkpoint: Checkpoint
// snapshots the simulation state a restore cannot rebuild — the owned values
// of every dat written since the backend was constructed, halo validity,
// virtual clocks, the fault/exchange sequence counter, stats, plan-cache
// fingerprints and autotuner state — and Restore rebuilds a
// process-equivalent backend that continues exactly where the snapshot left
// off. The restore invariant: crash -> restore-from-last-checkpoint ->
// completion yields dat checksums bitwise identical to the uninterrupted
// run, under every execution policy (per-loop OP2, CA at any depth, grouped
// or ungrouped messages, lazy chains, parallel ranks, autotune mid-switch).
//
// What a snapshot leaves out, and why a restore does not need it:
//   - Halo copies. OP2's dirty-bit rule, generalised here to a validity
//     depth per dat, already rests on this: a halo copy inside its dat's
//     validity depth equals its owner's value bit for bit (every write
//     resets the depth to 0, only an exchange — a copy from the owner —
//     raises it), and a copy outside it is never read before an exchange
//     overwrites it. So owned values plus validity depths determine every
//     future result bit, snapshot byte, clock and counter, and restoreFrom
//     refills every halo copy of the written dats from its owner
//     (refillHalos). A chain configured shallower than ca.SafeAnalysis allows
//     (DESIGN 5b.3) is no exception: ca.Inspect still requires every dat a
//     loop reads to be valid to that loop's configured extension, so where
//     such a chain under-reaches it reads the pre-chain owner value its own
//     exchange delivered in place of an in-chain update — a deviation, but a
//     function of owned values and validity like everything else.
//   - Dats no loop or ScatterDat has written (mesh constants: volumes, edge
//     weights, coordinates). New copies them from Config.Prog, so the
//     restoring backend already holds them — provided the restoring program
//     declares the same values, which the fingerprint (names, sets, dims)
//     cannot see. The snapshot therefore carries a CRC-32C of each omitted
//     dat's owned values, and restoreFrom refuses a program whose constants
//     differ.
//
// What makes the invariant hold:
//   - Dat values and clocks are stored as IEEE-754 bit patterns (package
//     checkpoint), so no value changes in transit.
//   - FaultSeq keeps the deterministic fault schedule aligned: the resumed
//     run's exchanges draw the same verdicts as the uninterrupted run's.
//   - Plan-cache keys are restored as "warm" entries: the cached inspection
//     is rebuilt on first use (inspection is deterministic) but accounted as
//     a cache hit, so PlanCacheStats continue exactly.
//   - The autotuner's calibrator samples, dirty-dat observations,
//     per-window parameters and committed decision are all restored, so the
//     tuner's future decisions match the uninterrupted run's.
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
	"slices"
	"sort"

	"op2ca/internal/autotune"
	"op2ca/internal/checkpoint"
	"op2ca/internal/core"
	"op2ca/internal/halo"
	"op2ca/internal/obs"
)

// configFingerprint is the canonical identity of a backend configuration:
// the Config itself, by rule. Every field is in it unless its tag excludes it
// (`json:"-"`), and the tags are the whole exclusion list:
//   - Parallel, Slabs and Tracer are host-side: they never feed back into
//     results, clocks or stats, so a snapshot taken with a worker pool
//     resumes on one host thread and back, lent or not, traced or not;
//   - Prog, Primary, Assign, Chains and Faults are rendered below instead:
//     the program's sets and dats, the primary set's name, a hash of the
//     assignment, the chain file's text and the plan's message faults
//     (faults.Plan.MessageFaults: a crash-only plan fingerprints equal to no
//     plan at all, the resume configuration).
//
// Restore refuses a snapshot whose fingerprint does not match the restoring
// configuration: resuming into a different mesh, machine (all of it, GPU
// device included) or policy would silently break the restore invariant.
type configFingerprint struct {
	Version int `json:"version"`
	Config
	// The resolved retransmission budget, not the plan's clause: a
	// crash-only plan carrying maxretries would otherwise fingerprint equal
	// to a no-fault resume config with a different effective budget. (The
	// retry timeout and backoff are functions of the machine's latency.)
	MaxRetries int     `json:"max_retries"`
	Faults     string  `json:"faults"`
	Chains     string  `json:"chains"`
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

// configFingerprint returns the backend's fingerprint bytes. Everything they
// cover is fixed by New, so they are rendered (one JSON marshal, one hash over
// the whole partition assignment) on first use and reused by every snapshot.
func (b *Backend) configFingerprint() ([]byte, error) {
	if b.ckptFingerprint != nil {
		return b.ckptFingerprint, nil
	}
	cfg := b.cfg
	fp := configFingerprint{Version: checkpoint.Version, Config: cfg, MaxRetries: b.maxRetries,
		Faults: cfg.Faults.MessageFaults(), Primary: cfg.Primary.Name}
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
	var err error
	b.ckptFingerprint, err = checkpoint.MarshalFingerprint(fp)
	return b.ckptFingerprint, err
}

// ckptMeta is the backend-defined continuation blob of a snapshot: stats,
// plan-cache state and autotuner state, JSON-encoded (encoding/json sorts
// map keys, so equal states produce equal bytes).
type ckptMeta struct {
	// Dats says, per declared dat, what the snapshot's dats section holds.
	Dats              []ckptDat  `json:"dats"`
	Stats             *Stats     `json:"stats"`
	PlanHits          int64      `json:"plan_hits"`
	PlanMisses        int64      `json:"plan_misses"`
	PlanInvalidations int64      `json:"plan_invalidations"`
	Plans             []planKey  `json:"plans,omitempty"`
	Tunes             []ckptTune `json:"tunes,omitempty"`
}

// ckptDat describes one dat of a snapshot: Written dats have their owned
// values in the dats section (every rank's slab is its owned prefix); the
// others have empty slabs and the CRC-32C of their owned values, rank after
// rank, so a restore can tell the restoring program declares the same ones.
type ckptDat struct {
	Written bool   `json:"written,omitempty"`
	CRC     uint32 `json:"crc,omitempty"`
}

// ckptTune is one chain's serialised autotuner state.
type ckptTune struct {
	Chain     string                   `json:"chain"`
	Sig       string                   `json:"sig"`
	Skip      bool                     `json:"skip,omitempty"`
	Dirty     []int                    `json:"dirty,omitempty"`
	Op2Params []tunedLoop              `json:"op2_params,omitempty"`
	Decision  *autotune.Decision       `json:"decision,omitempty"`
	Cal       autotune.CalibratorState `json:"cal"`
}

// owned returns rank r's owned values of d: the prefix of its local storage.
func (b *Backend) owned(r int, d *core.Dat) []float64 {
	return b.dats[r][d.ID][:b.layouts[r].SetL(d.Set).NOwned*d.Dim]
}

// constCRCs returns, per dat, the CRC-32C of the owned values (rank after
// rank) of every dat not written when it is first called; entries of written
// dats are meaningless. A dat unwritten then and unwritten at a later
// snapshot still holds the same values, so one computation per backend
// serves all its snapshots.
func (b *Backend) constCRCs() []uint32 {
	if b.ckptConstCRC == nil {
		b.ckptConstCRC = make([]uint32, len(b.cfg.Prog.Dats))
		buf := make([]byte, 4096)
		for _, d := range b.cfg.Prog.Dats {
			if b.written[d.ID] {
				continue
			}
			var crc uint32
			for r := range b.dats {
				crc = checkpoint.ChecksumFloats(crc, b.owned(r, d), buf)
			}
			b.ckptConstCRC[d.ID] = crc
		}
	}
	return b.ckptConstCRC
}

// snapshotSlabs fills the backend's slab table for one snapshot: per rank,
// the owned prefix of every written dat — a slice of live storage, nothing is
// gathered or copied — and an empty slab for the others.
func (b *Backend) snapshotSlabs() [][][]float64 {
	if b.ckptSlabs == nil {
		nd := len(b.cfg.Prog.Dats)
		flat := make([][]float64, b.cfg.NParts*nd)
		b.ckptSlabs = make([][][]float64, b.cfg.NParts)
		for r := range b.ckptSlabs {
			b.ckptSlabs[r] = flat[r*nd : (r+1)*nd]
		}
	}
	for r, slabs := range b.ckptSlabs {
		for _, d := range b.cfg.Prog.Dats {
			if b.written[d.ID] {
				slabs[d.ID] = b.owned(r, d)
			}
		}
	}
	return b.ckptSlabs
}

// Checkpoint writes a snapshot of the backend's state to w: everything a
// restore into a process-equivalent configuration cannot rebuild (see the
// file comment). Lazily queued loops are flushed first (the snapshot captures
// a well-defined synchronisation point); an open explicit chain is an error —
// there is no mid-chain state a restore could resume into. note is
// caller-defined resume context returned verbatim by Restore.
func (b *Backend) Checkpoint(w io.Writer, note string) error {
	b.mustBeOpen("Checkpoint")
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
		Dats:         b.snapshotSlabs(),
	}
	for i, v := range b.valid {
		st.ValidExec[i] = int64(v.exec)
		st.ValidNonexec[i] = int64(v.nonexec)
	}
	meta := ckptMeta{
		Dats:              make([]ckptDat, len(b.written)),
		Stats:             b.stats,
		PlanHits:          b.planHits,
		PlanMisses:        b.planMisses,
		PlanInvalidations: b.planInvalidations,
	}
	for id, crc := range b.constCRCs() {
		if b.written[id] {
			meta.Dats[id].Written = true
		} else {
			meta.Dats[id].CRC = crc
		}
	}
	for _, e := range b.plans {
		meta.Plans = append(meta.Plans, e.key)
	}
	for key := range b.warmPlans {
		// Warm keys not yet rebuilt carry over: the uninterrupted run still
		// holds their entries.
		meta.Plans = append(meta.Plans, key)
	}
	sort.Slice(meta.Plans, func(i, j int) bool {
		if meta.Plans[i].Chain != meta.Plans[j].Chain {
			return meta.Plans[i].Chain < meta.Plans[j].Chain
		}
		return meta.Plans[i].Sig < meta.Plans[j].Sig
	})
	for key, ct := range b.tunes {
		t := ckptTune{
			Chain:     key.chain,
			Sig:       key.sig,
			Skip:      ct.skip,
			Op2Params: ct.op2Params,
			Cal:       ct.cal.State(),
		}
		for id := range ct.dirty {
			t.Dirty = append(t.Dirty, id)
		}
		sort.Ints(t.Dirty)
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

// restoreDats is the data half of restoreFrom: slabs is the snapshot's dats
// section, dats the continuation blob's account of it.
func (b *Backend) restoreDats(slabs [][][]float64, dats []ckptDat) error {
	decl := b.cfg.Prog.Dats
	if len(dats) != len(decl) {
		return snapshotErrorf(ErrSnapshotShape, "meta describes %d dats, config declares %d", len(dats), len(decl))
	}
	if len(slabs) != len(b.dats) {
		return snapshotErrorf(ErrSnapshotShape, "%d ranks of data, config builds %d", len(slabs), len(b.dats))
	}
	for r := range b.dats {
		if len(slabs[r]) != len(decl) {
			return snapshotErrorf(ErrSnapshotShape, "rank %d has %d dats, config declares %d", r, len(slabs[r]), len(decl))
		}
		for _, d := range decl {
			own, got := b.owned(r, d), slabs[r][d.ID]
			if len(got) != 0 && len(got) != len(own) {
				return snapshotErrorf(ErrSnapshotShape, "rank %d dat %s has %d values, want 0 or the %d owned",
					r, d.Name, len(got), len(own))
			}
			if w := dats[d.ID].Written; len(own) != 0 && w != (len(got) != 0) {
				return snapshotErrorf(ErrSnapshotShape, "rank %d dat %s has %d values but meta says written=%t",
					r, d.Name, len(got), w)
			}
			copy(own, got)
		}
	}
	for id, d := range dats {
		b.written[id] = d.Written
	}
	// The omitted dats: the values New copied from Config.Prog must be the
	// ones the snapshotting backend held.
	for id, crc := range b.constCRCs() {
		if !dats[id].Written && crc != dats[id].CRC {
			return snapshotErrorf(ErrSnapshotConstants,
				"dat %s was never written when the snapshot was taken and is not stored in it, "+
					"but the restoring program declares different values (CRC-32C %#08x, snapshot %#08x)",
				decl[id].Name, crc, dats[id].CRC)
		}
	}
	b.refillHalos()
	return nil
}

// refillHalos overwrites every halo copy of every written dat with its
// owner's value — what the snapshot leaves out and an uninterrupted run holds
// inside the validity depths (outside them the two may differ, and nothing
// reads there before an exchange). It walks each set's import ranges against
// the owner's export lists of the same shell, which name the same elements
// in the same order by construction (halo.Build derives the one from the
// other), so a range is refilled by one gather; no clock, counter or
// allocation is involved. A range without its export list is the layout
// inconsistency buildSchedule panics on, with the same typed error.
func (b *Backend) refillHalos() {
	for _, d := range b.cfg.Prog.Dats {
		if !b.written[d.ID] {
			continue
		}
		for r, l := range b.layouts {
			sl := l.SetL(d.Set)
			for k := 0; k < l.Depth; k++ {
				for _, rg := range sl.ImportExec[k] {
					b.refillRange(d, r, rg, b.layouts[rg.Rank].SetL(d.Set).ExportExec[k])
				}
				for _, rg := range sl.ImportNonexec[k] {
					b.refillRange(d, r, rg, b.layouts[rg.Rank].SetL(d.Set).ExportNonexec[k])
				}
			}
		}
	}
}

// refillRange copies rank r's import range rg of d from its owner, whose
// export lists for the range's shell are exports.
func (b *Backend) refillRange(d *core.Dat, r int, rg halo.ImportRange, exports []halo.ExportList) {
	i, ok := slices.BinarySearchFunc(exports, int32(r), func(ex halo.ExportList, to int32) int {
		return int(ex.Rank - to)
	})
	if !ok {
		panic(&ExchangeError{Kind: ErrMissing, Rank: r, From: rg.Rank, Dat: d.Name})
	}
	locals := exports[i].Locals
	if len(locals) != int(rg.Count) {
		panic(&ExchangeError{Kind: ErrSizeMismatch, Rank: r, From: rg.Rank, Dat: d.Name,
			Want: int(rg.Count) * d.Dim, Got: len(locals) * d.Dim})
	}
	dim := d.Dim
	src, dst := b.dats[rg.Rank][d.ID], b.dats[r][d.ID][int(rg.Start)*dim:]
	for j, loc := range locals {
		copy(dst[j*dim:(j+1)*dim], src[int(loc)*dim:(int(loc)+1)*dim])
	}
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
// configuration: owned values of the written dats from the dats section,
// their halo copies from the owners just restored, never-written dats left as
// New copied them from Config.Prog once their CRCs agree. A snapshot that
// does not fit is refused with a *SnapshotError.
func (b *Backend) restoreFrom(st *checkpoint.State) error {
	fp, err := b.configFingerprint()
	if err != nil {
		return err
	}
	if !bytes.Equal(fp, st.Fingerprint) {
		return snapshotErrorf(ErrSnapshotConfig, "fingerprint mismatch:\n  snapshot: %s\n  config:   %s",
			st.Fingerprint, fp)
	}
	if len(st.Clocks) != len(b.clock) {
		return snapshotErrorf(ErrSnapshotShape, "%d clocks, config builds %d", len(st.Clocks), len(b.clock))
	}
	copy(b.clock, st.Clocks)
	if len(st.ValidExec) != len(b.valid) || len(st.ValidNonexec) != len(b.valid) {
		return snapshotErrorf(ErrSnapshotShape, "%d/%d validity entries, config builds %d",
			len(st.ValidExec), len(st.ValidNonexec), len(b.valid))
	}
	for i := range b.valid {
		e, n := st.ValidExec[i], st.ValidNonexec[i]
		if depth := int64(b.cfg.Depth); e < 0 || e > depth || n < 0 || n > depth {
			return snapshotErrorf(ErrSnapshotShape, "dat %s validity %d/%d outside the %d shells built",
				b.cfg.Prog.Dats[i].Name, e, n, depth)
		}
		b.valid[i] = validity{exec: int(e), nonexec: int(n)}
	}
	b.faultSeq = st.FaultSeq
	var meta ckptMeta
	if err := json.Unmarshal(st.Meta, &meta); err != nil {
		return snapshotErrorf(ErrSnapshotShape, "meta: %v", err)
	}
	if err := b.restoreDats(st.Dats, meta.Dats); err != nil {
		return err
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
		b.warmPlans[k] = true
	}
	for _, t := range meta.Tunes {
		ct := &chainTune{
			chain:     t.Chain,
			cal:       autotune.NewCalibratorFromState(t.Cal),
			skip:      t.Skip,
			dirty:     map[int]bool{},
			op2Params: t.Op2Params,
		}
		for _, id := range t.Dirty {
			ct.dirty[id] = true
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
