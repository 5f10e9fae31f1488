package checkpoint

// ring.go is the generation ring behind "every=N,path=P,keep=K": instead of
// overwriting one snapshot file, writes rotate through K numbered generation
// files, every write is verified by reading it back (Verify: the decoder's
// own walk, keeping nothing) before older generations are pruned, and
// recovery scans newest-to-oldest, quarantining generations that fail to
// decode. With keep > 1 a torn or bit-flipped newest snapshot therefore
// costs one generation of progress, not the whole run.

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

// Ring writes and recovers snapshot generations under a Spec. A Ring is not
// safe for concurrent use; the runtime checkpoints from one goroutine.
type Ring struct {
	spec Spec
	next int
	// live is the ring's own record of its generations on disk, newest
	// first: seeded by NewRing's one directory scan, extended by Write,
	// shrunk by pruning and quarantine. Housekeeping works from it, so a
	// write costs no directory listing; a file removed behind the ring's
	// back is noticed when it is next touched and dropped from the record.
	live []Generation
	// VerifyFailures counts writes whose read-back verification failed
	// (the snapshot was quarantined and the write reported as an error).
	VerifyFailures int
}

// NewRing builds a ring over spec (an unset Keep retains one generation),
// adopting the generations already on disk and resuming the numbering past
// them (a supervised restart must not overwrite the snapshots it is about to
// recover from). Generations beyond Keep that an earlier ring left behind are
// pruned by the next write.
func NewRing(spec Spec) (*Ring, error) {
	if spec.Path == "" {
		return nil, fmt.Errorf("checkpoint: ring needs a path")
	}
	spec.Keep = max(spec.Keep, 1)
	r := &Ring{spec: spec}
	if err := r.scan(); err != nil {
		return nil, err
	}
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

// scan seeds live from the ring's directory: every entry named
// "<base>.g<digits>", matched literally — the path is the user's
// (-checkpoint path=..., the service's data directory) and may hold any
// character a glob pattern would interpret. Quarantined and temporary files
// carry a further suffix and do not match. A directory that does not exist
// yet holds no generations.
func (r *Ring) scan() error {
	entries, err := os.ReadDir(filepath.Dir(r.spec.Path))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
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
	return nil
}

// Generations returns the ring's snapshot generations, newest first, as the
// ring knows them (see Ring.live). Quarantined files are excluded.
func (r *Ring) Generations() []Generation { return slices.Clone(r.live) }

// Write adds one snapshot generation: atomic write (fsynced), read-back
// verification, then pruning of generations beyond Keep. A snapshot
// that fails verification is quarantined and reported as an error — the
// older generations it would have displaced stay in place, so the caller
// still has a valid recovery point.
func (r *Ring) Write(encode func(w io.Writer) error) (string, error) {
	path := r.genPath(r.next)
	if err := AtomicWriteFile(path, encode); err != nil {
		return "", err
	}
	if _, err := readFile(path, false); err != nil {
		r.VerifyFailures++
		q, qerr := Quarantine(path)
		if qerr != nil {
			return "", fmt.Errorf("checkpoint: ring: write verification failed (%v) and quarantine failed: %v", err, qerr)
		}
		return "", fmt.Errorf("checkpoint: ring: write verification failed, snapshot quarantined to %s: %w", q, err)
	}
	r.live = slices.Insert(r.live, 0, Generation{Path: path, Seq: r.next})
	r.next++
	r.prune()
	return path, nil
}

// prune removes the oldest generations beyond Keep. A generation already
// gone is forgotten; any other removal error keeps it on record, so the next
// prune retries — a leftover old generation is harmless (recovery prefers
// newer ones).
func (r *Ring) prune() {
	keep := min(len(r.live), r.spec.Keep)
	kept := r.live[:keep]
	for _, g := range r.live[keep:] {
		if err := os.Remove(g.Path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			kept = append(kept, g)
		}
	}
	r.live = kept
}

// Clear unlinks every generation on record and forgets them: the run the ring
// served is settled and its snapshots are dead weight. Quarantined snapshots
// stay for inspection. Removal errors are ignored, as in prune.
func (r *Ring) Clear() {
	for _, g := range r.live {
		os.Remove(g.Path)
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

// RecoverNewest scans the ring newest-to-oldest for a generation that
// decodes cleanly, quarantining every corrupt generation it passes over and
// forgetting any that is no longer on disk. It returns the decoded state and
// its generation, how many generations were tried and how many quarantined;
// a nil state means the ring holds no usable snapshot (cold start).
func (r *Ring) RecoverNewest() (st *State, gen Generation, tried, quarantined int) {
	for i := 0; i < len(r.live); {
		g := r.live[i]
		st, err := ReadFile(g.Path)
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
