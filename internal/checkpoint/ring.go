package checkpoint

// ring.go is the generation ring behind "every=N,path=P,keep=K": instead of
// overwriting one snapshot file, writes rotate through K numbered generation
// files, every write is verified by reading it back (Verify: the decoder's
// own walk, keeping nothing) before older generations are pruned, and
// recovery scans newest-to-oldest, quarantining generations that fail to
// decode. With keep > 1 a torn or bit-flipped newest snapshot therefore
// costs one generation of progress, not the whole run.
//
// A write is two stages. Stage runs on the caller's goroutine and is all the
// caller waits for: the snapshot is encoded into the generation's temporary
// file (over a retired generation's file when the ring's Spares hold one).
// Commit — fsync, rename, directory sync, read-back verification, record,
// prune — runs on a goroutine of its own while the caller computes its next
// iteration: a run needs a generation only when it crashes, so nothing in it
// waits for the disk. At most one commit is in flight per ring; the next
// Write, Flush and every reader of the ring's record join it first, so the
// ring is seen exactly as a ring that committed inside Write would be.

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// quarantineSuffix marks a generation that failed decode verification. The
// file is renamed aside rather than deleted, so an operator can inspect the
// corruption; quarantined files are invisible to Generations and never
// pruned.
const quarantineSuffix = ".quarantined"

// Generation is one snapshot file of a ring.
type Generation struct {
	Path string
	// Seq is the generation's monotonically increasing write number.
	Seq int
}

// RingStats counts what a ring did, for its owner's metrics.
type RingStats struct {
	// Committed counts the generations committed, Recycled those of them
	// written over a spare file instead of a newly created one.
	Committed, Recycled int
	// CommitErrors counts the staged generations whose commit failed.
	CommitErrors int
	// Join is the time callers spent waiting for a commit in flight.
	Join time.Duration
}

// Add accumulates o into s.
func (s *RingStats) Add(o RingStats) {
	s.Committed += o.Committed
	s.Recycled += o.Recycled
	s.CommitErrors += o.CommitErrors
	s.Join += o.Join
}

// Ring writes and recovers snapshot generations under a Spec. A Ring is not
// safe for concurrent use; the runtime checkpoints from one goroutine. The
// ring's own commit goroutine touches the fields below only between the
// Write that starts it and the join that ends it.
type Ring struct {
	spec   Spec
	spares *Spares
	next   int
	// live is the ring's own record of its generations on disk, newest
	// first: seeded by NewRing's one directory scan, extended by commits,
	// shrunk by pruning and quarantine. Housekeeping works from it, so a
	// write costs no directory listing; a file removed behind the ring's
	// back is noticed when it is next touched and dropped from the record.
	live []Generation
	// inflight is closed by the commit in flight; nil when none has been
	// started since the last join.
	inflight chan struct{}
	// err is the error of a joined commit nobody has been told yet: the next
	// Write or Flush returns it, once.
	err            error
	stats          RingStats
	verifyFailures int
	// fault, when set (tests), is asked before the commit's fsync ("sync")
	// and read-back ("verify") for an error to fail the step with, and
	// before anything else ("abandon") whether to stop there, as a process
	// killed between stage and commit would.
	fault func(step string) error
}

// NewRing builds a ring over spec (an unset Keep retains one generation),
// adopting the generations already on disk and resuming the numbering past
// them (a supervised restart must not overwrite the snapshots it is about to
// recover from). Generations beyond Keep that an earlier ring left behind are
// retired by the next write. The ring owns a Spares list of one file beside
// its generations, so from the write that first displaces a generation on
// every write overwrites the file retired before it; Spares.NewRing builds a
// ring on a shared list instead.
func NewRing(spec Spec) (*Ring, error) { return newRing(spec, nil) }

func newRing(spec Spec, spares *Spares) (*Ring, error) {
	if spec.Path == "" {
		return nil, fmt.Errorf("checkpoint: ring needs a path")
	}
	spec.Keep = max(spec.Keep, 1)
	// A directory that does not exist yet holds no generations.
	dir := filepath.Dir(spec.Path)
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	if spares == nil {
		spares = openSpares(dir, "."+filepath.Base(spec.Path)+".", 1, entries)
	}
	r := &Ring{spec: spec, spares: spares}
	r.scan(entries)
	if len(r.live) > 0 {
		r.next = r.live[0].Seq + 1
	}
	return r, nil
}

// Spec returns the ring's configuration.
func (r *Ring) Spec() Spec { return r.spec }

// genPath names generation seq: "P.g000042". Zero-padded, so lexical and
// numeric order agree for any plausible generation count.
func (r *Ring) genPath(seq int) string {
	return fmt.Sprintf("%s.g%06d", r.spec.Path, seq)
}

// scan seeds live from the listing of the ring's directory: every entry
// named "<base>.g<digits>", matched literally — the path is the user's
// (-checkpoint path=..., the service's data directory) and may hold any
// character a glob pattern would interpret. Quarantined, temporary and spare
// files carry a further suffix and do not match.
func (r *Ring) scan(entries []fs.DirEntry) {
	prefix := filepath.Base(r.spec.Path) + ".g"
	for _, e := range entries {
		digits, ok := strings.CutPrefix(e.Name(), prefix)
		if !ok || strings.Trim(digits, "0123456789") != "" {
			continue
		}
		seq, err := strconv.Atoi(digits)
		if err != nil {
			continue
		}
		r.live = append(r.live, Generation{Path: r.spec.Path + ".g" + digits, Seq: seq})
	}
	slices.SortFunc(r.live, func(a, b Generation) int { return b.Seq - a.Seq })
}

// join waits for the commit in flight, if any. Its error stays with the ring
// until a Write or a Flush returns it.
func (r *Ring) join() {
	if r.inflight == nil {
		return
	}
	start := time.Now()
	<-r.inflight
	r.inflight = nil
	r.stats.Join += time.Since(start)
}

// Flush joins the commit in flight and returns the error of a commit that
// failed since the last Write or Flush returned one. After Flush the ring
// runs no goroutine, and every generation Write returned a path for is
// committed or reported failed.
func (r *Ring) Flush() error {
	r.join()
	err := r.err
	r.err = nil
	return err
}

// Generations returns the ring's snapshot generations, newest first, as the
// ring knows them (see Ring.live) once the commit in flight is over.
// Quarantined files are excluded.
func (r *Ring) Generations() []Generation {
	r.join()
	return slices.Clone(r.live)
}

// VerifyFailures counts the generations whose read-back verification failed
// (the snapshot was quarantined and the write reported as an error).
func (r *Ring) VerifyFailures() int {
	r.join()
	return r.verifyFailures
}

// Stats returns the ring's counters once the commit in flight is over.
func (r *Ring) Stats() RingStats {
	r.join()
	return r.stats
}

// Write adds one snapshot generation and returns the path it commits to. The
// caller waits for the stage only: the generation before it is joined — its
// error, if it had one, is returned here and nothing is staged — and encode
// runs into the generation's temporary file. The commit goes on behind the
// caller's back: fsync, rename, directory sync, read-back verification, then
// retirement of the generations beyond Keep. A snapshot that fails
// verification is quarantined and reported as an error — by the next Write
// or Flush — and the older generations it would have displaced stay in
// place, so the caller still has a valid recovery point; a failed
// generation's number is reused by the next write.
func (r *Ring) Write(encode func(w io.Writer) error) (string, error) {
	if err := r.Flush(); err != nil {
		return "", err
	}
	seq := r.next
	s, err := stage(r.genPath(seq), r.spares, encode)
	if err != nil {
		return "", err
	}
	done := make(chan struct{})
	r.inflight = done
	go func() {
		defer close(done)
		if r.faultAt("abandon") != nil {
			s.f.Close()
			return
		}
		if r.err = r.commit(s, seq); r.err != nil {
			r.stats.CommitErrors++
			return
		}
		r.stats.Committed++
		if s.recycled {
			r.stats.Recycled++
		}
	}()
	return s.path, nil
}

// commit makes the staged generation seq durable, verifies it by reading it
// back, records it and only then retires the generations beyond Keep.
func (r *Ring) commit(s *staged, seq int) error {
	if err := r.faultAt("sync"); err != nil {
		s.abort()
		return err
	}
	if err := s.commit(); err != nil {
		return err
	}
	path := s.path
	err := r.faultAt("verify")
	if err == nil {
		err = withFile(path, Verify)
	}
	if err != nil {
		r.verifyFailures++
		q, qerr := Quarantine(path)
		if qerr != nil {
			return fmt.Errorf("checkpoint: ring: write verification failed (%v) and quarantine failed: %v", err, qerr)
		}
		return fmt.Errorf("checkpoint: ring: write verification failed, snapshot quarantined to %s: %w", q, err)
	}
	r.live = slices.Insert(r.live, 0, Generation{Path: path, Seq: seq})
	r.next = seq + 1
	r.prune()
	return nil
}

func (r *Ring) faultAt(step string) error {
	if r.fault == nil {
		return nil
	}
	return r.fault(step)
}

// prune retires the oldest generations beyond Keep into the ring's spares. A
// generation already gone is forgotten; any other error keeps it on record,
// so the next prune retries — a leftover old generation is harmless
// (recovery prefers newer ones).
func (r *Ring) prune() {
	keep := min(len(r.live), r.spec.Keep)
	kept := r.live[:keep]
	for _, g := range r.live[keep:] {
		if err := r.spares.put(g.Path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			kept = append(kept, g)
		}
	}
	r.live = kept
}

// Clear retires every generation on record and forgets them: the run the ring
// served is settled and its snapshots are dead weight. Quarantined snapshots
// stay for inspection. Errors are ignored, as in prune.
func (r *Ring) Clear() {
	r.join()
	for _, g := range r.live {
		r.spares.put(g.Path)
	}
	r.live = nil
}

// Quarantine renames a corrupt snapshot aside (path -> path.quarantined)
// and returns the new name. An existing quarantine at that name is
// overwritten — the newer corpse is the interesting one.
func Quarantine(path string) (string, error) {
	q := path + quarantineSuffix
	if err := os.Rename(path, q); err != nil {
		return "", err
	}
	return q, nil
}

// RecoverNewest joins the commit in flight, then scans the ring
// newest-to-oldest for a generation that decodes cleanly, quarantining every
// corrupt generation it passes over and forgetting any that is no longer on
// disk. It returns the recovered state and its generation, how many
// generations were tried and how many quarantined; a nil state means the ring
// holds no usable snapshot (cold start). The scan checks a generation
// exactly as Verify does and keeps every section but the dats: the state has
// no Dats, and a restore streams them from the generation into its own
// storage (State.ReadDats) instead.
func (r *Ring) RecoverNewest() (st *State, gen Generation, tried, quarantined int) {
	r.join()
	for i := 0; i < len(r.live); {
		g := r.live[i]
		st, err := readRecovered(g.Path)
		if err == nil {
			return st, g, tried + 1, quarantined
		}
		gone := errors.Is(err, fs.ErrNotExist)
		if !gone {
			tried++
			if _, qerr := Quarantine(g.Path); qerr == nil {
				quarantined++
				gone = true
			}
		}
		if gone {
			r.live = slices.Delete(r.live, i, i+1)
		} else {
			i++ // could not be moved aside: stays on record, passed over
		}
	}
	return nil, Generation{}, tried, quarantined
}
