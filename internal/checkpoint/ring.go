package checkpoint

// ring.go is the generation ring behind "every=N,path=P,keep=K": instead of
// overwriting one snapshot file, writes rotate through K numbered generation
// files, every write is verified by reading it back (Verify: the decoder's
// own walk, keeping nothing) before older generations are pruned, and
// recovery scans newest-to-oldest, quarantining generations that fail to
// decode. With keep > 1 a torn or bit-flipped newest snapshot therefore
// costs one generation of progress, not the whole run.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
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
	// VerifyFailures counts writes whose read-back verification failed
	// (the snapshot was quarantined and the write reported as an error).
	VerifyFailures int
}

// NewRing builds a ring over spec (an unset Keep retains one generation),
// resuming the generation numbering past any generations already on disk (a
// supervised restart must not overwrite the snapshots it is about to
// recover from).
func NewRing(spec Spec) (*Ring, error) {
	if spec.Path == "" {
		return nil, fmt.Errorf("checkpoint: ring needs a path")
	}
	spec.Keep = max(spec.Keep, 1)
	r := &Ring{spec: spec}
	gens, err := r.Generations()
	if err != nil {
		return nil, err
	}
	if len(gens) > 0 {
		r.next = gens[0].Seq + 1
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

// Generations lists the ring's on-disk snapshot generations, newest first.
// Quarantined files are excluded.
func (r *Ring) Generations() ([]Generation, error) {
	matches, err := filepath.Glob(r.spec.Path + ".g*")
	if err != nil {
		return nil, err
	}
	var gens []Generation
	for _, m := range matches {
		if strings.HasSuffix(m, quarantineSuffix) || strings.HasSuffix(m, ".tmp") {
			continue
		}
		seq, err := strconv.Atoi(strings.TrimPrefix(m, r.spec.Path+".g"))
		if err != nil {
			continue
		}
		gens = append(gens, Generation{Path: m, Seq: seq})
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].Seq > gens[j].Seq })
	return gens, nil
}

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
	r.next++
	r.prune()
	return path, nil
}

// prune removes the oldest generations beyond Keep. Removal errors are
// ignored: a leftover old generation is harmless (recovery prefers newer
// ones) and the next prune retries.
func (r *Ring) prune() {
	gens, err := r.Generations()
	if err != nil {
		return
	}
	for _, g := range gens[min(len(gens), r.spec.Keep):] {
		os.Remove(g.Path)
	}
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
// decodes cleanly, quarantining every corrupt generation it passes over.
// It returns the decoded state and its generation, how many generations
// were tried and how many quarantined; a nil state with a nil error means
// the ring holds no usable snapshot (cold start).
func (r *Ring) RecoverNewest() (st *State, gen Generation, tried, quarantined int, err error) {
	gens, err := r.Generations()
	if err != nil {
		return nil, Generation{}, 0, 0, err
	}
	for _, g := range gens {
		tried++
		st, derr := ReadFile(g.Path)
		if derr == nil {
			return st, g, tried, quarantined, nil
		}
		if _, qerr := Quarantine(g.Path); qerr == nil {
			quarantined++
		}
	}
	return nil, Generation{}, tried, quarantined, nil
}
