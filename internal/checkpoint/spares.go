package checkpoint

import (
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// spareSuffix ends every spare file's name. A generation's name ends in a
// digit (Ring.scan), so no ring over any path can adopt a spare.
const spareSuffix = ".spare"

// Spares is a bounded free list of retired generation files. A ring that
// retires a generation — displaced by a newer one, or cleared with its run —
// renames the file into the list instead of unlinking it, and the next
// generation staged by any ring on the list is written over it: the file's
// blocks are allocated once and carry one generation after another, where
// create-and-unlink pays the allocator (and, on a discard mount, the trim)
// every time. A file in the list is not a generation of any ring — it
// stopped being one when it was renamed — so overwriting it in place
// destroys nothing a recovery could want.
//
// A stand-alone ring owns a list of one beside its generations; a process
// running many rings (the job service) opens one list and builds every ring
// on it. Safe for concurrent use by the rings that share it.
type Spares struct {
	dir, stem string

	mu   sync.Mutex
	max  int
	free []string // paths of the spare files, most recently retired last
	seq  int      // spare names handed out
}

// OpenSpares opens a free list of at most max files in dir (which must be on
// the file system of the rings built on it: files move by rename) and removes
// the spares an earlier process left there.
func OpenSpares(dir string, max int) (*Spares, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	return openSpares(dir, "ring.", max, entries), nil
}

// openSpares is OpenSpares over a directory already listed. Spare files are
// named "<stem><n>.spare"; the stem keeps lists that share a directory apart.
func openSpares(dir, stem string, max int, entries []fs.DirEntry) *Spares {
	s := &Spares{dir: dir, stem: stem, max: max}
	for _, e := range entries {
		if n, ok := strings.CutPrefix(e.Name(), stem); ok {
			if n, ok = strings.CutSuffix(n, spareSuffix); ok && n != "" && strings.Trim(n, "0123456789") == "" {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	return s
}

// NewRing builds a ring over spec (see NewRing) that retires its generations
// into s and stages new ones over the files it finds there.
func (s *Spares) NewRing(spec Spec) (*Ring, error) { return newRing(spec, s) }

// put retires the file at path: renamed into the list, or unlinked when the
// list is full (or the rename is refused). The error is the unlink's.
func (s *Spares) put(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.free) < s.max {
		spare := filepath.Join(s.dir, s.stem+strconv.Itoa(s.seq)+spareSuffix)
		s.seq++
		if os.Rename(path, spare) == nil {
			s.free = append(s.free, spare)
			return nil
		}
	}
	return os.Remove(path)
}

// take moves a spare file to path and reports whether it did. A spare removed
// behind the list's back is forgotten and the next one tried; when a spare is
// there and path will not take it, the list keeps its files.
func (s *Spares) take(path string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.free) > 0 {
		last := len(s.free) - 1
		spare := s.free[last]
		if os.Rename(spare, path) == nil {
			s.free = s.free[:last]
			return true
		}
		if _, err := os.Lstat(spare); err == nil {
			return false // the spare is there: it is path that will not take it
		}
		s.free = s.free[:last]
	}
	return false
}

// Close unlinks the spare files and closes the list: a ring that retires a
// generation afterwards unlinks it.
func (s *Spares) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, spare := range s.free {
		os.Remove(spare)
	}
	s.free, s.max = nil, 0
}
