package checkpoint

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// Spec is the parsed form of the -checkpoint command-line flag:
// "every=N,path=P,keep=K" requests a snapshot after every N measured
// iterations. Snapshots rotate through a generation ring of numbered files
// P.g00000N (see Ring), each written atomically and verified by read-back
// before the generations beyond the newest K are pruned, so a crash always
// finds the most recent complete snapshot; with K > 1 recovery can also
// fall back past a corrupt newest generation.
type Spec struct {
	Every int
	Path  string
	// Keep is the number of snapshot generations retained; 0 means 1.
	Keep int
}

// Enabled reports whether the spec requests periodic snapshots.
func (s Spec) Enabled() bool { return s.Every > 0 && s.Path != "" }

// ParseSpec parses "every=N,path=P[,keep=K]" (every and path required, any
// order; keep defaults to 1). Each key may appear at most once — a
// duplicate is almost always a copy-paste error, and silently letting the
// last occurrence win would mask it. Empty fields (a trailing comma) are
// skipped, as in the -faults and -supervise grammars.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	seen := make(map[string]bool, 3)
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Spec{}, fmt.Errorf("checkpoint spec: %q is not key=value", field)
		}
		if seen[key] {
			return Spec{}, fmt.Errorf("checkpoint spec: duplicate key %q", key)
		}
		seen[key] = true
		switch key {
		case "every":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Spec{}, fmt.Errorf("checkpoint spec: every=%q must be a positive integer", val)
			}
			spec.Every = n
		case "path":
			if val == "" {
				return Spec{}, fmt.Errorf("checkpoint spec: path must not be empty")
			}
			spec.Path = val
		case "keep":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Spec{}, fmt.Errorf("checkpoint spec: keep=%q must be a positive integer", val)
			}
			spec.Keep = n
		default:
			return Spec{}, fmt.Errorf("checkpoint spec: unknown key %q (want every, path, keep)", key)
		}
	}
	if !spec.Enabled() {
		return Spec{}, fmt.Errorf("checkpoint spec: both every=N and path=P are required")
	}
	return spec, nil
}

// A snapshot reaches its path in two halves. stage writes it to a temporary
// file beside the path — the page cache is the staging area, nothing
// snapshot-sized is buffered — and commit makes it durable under its name:
// the temporary file is fsynced before the rename and the parent directory
// after it, so neither a process crash mid-write nor a host crash shortly
// after the rename can leave a truncated or empty-but-renamed file where a
// complete snapshot stood. Only stage runs the caller's encoder; a Ring
// commits on a goroutine of its own while the caller computes on.

// staged is a snapshot written to its temporary file and not yet committed.
type staged struct {
	f    *os.File
	path string // the name commit gives it; the file is at path + ".tmp"
	// recycled: the file was taken from the spares, not created.
	recycled bool
}

// stage writes the snapshot write produces to path's temporary file: over a
// file taken from spares (may be nil) when there is one — opened without
// truncation, so its blocks are overwritten in place, then cut to the encoded
// length — and into a new file otherwise. The file is handed to write
// unbuffered: Encode issues chunk-sized writes of its own. On an error
// nothing is left behind.
func stage(path string, spares *Spares, write func(w io.Writer) error) (*staged, error) {
	tmp := path + ".tmp"
	s := &staged{path: path}
	var err error
	if spares != nil && spares.take(tmp) {
		if s.f, err = os.OpenFile(tmp, os.O_WRONLY, 0); err == nil {
			s.recycled = true
		} else {
			os.Remove(tmp)
		}
	}
	if !s.recycled {
		if s.f, err = os.Create(tmp); err != nil {
			return nil, err
		}
	}
	if err = write(s.f); err == nil && s.recycled {
		var n int64
		if n, err = s.f.Seek(0, io.SeekCurrent); err == nil {
			err = s.f.Truncate(n)
		}
	}
	if err != nil {
		s.abort()
		return nil, err
	}
	return s, nil
}

// abort discards a staged snapshot.
func (s *staged) abort() {
	s.f.Close()
	os.Remove(s.path + ".tmp")
}

// commit makes a staged snapshot durable at its path. On an error the
// temporary file is gone and whatever stood at the path still stands.
func (s *staged) commit() error {
	if err := s.f.Sync(); err != nil {
		s.abort()
		return err
	}
	tmp := s.path + ".tmp"
	if err := s.f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, s.path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(s.path))
}

// syncDir fsyncs a directory so a completed rename survives a host crash.
// Filesystems that cannot sync directories (some CI tmpfs setups) are not
// an error: the rename itself is still atomic.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}

// ReadFile decodes the snapshot stored at path.
func ReadFile(path string) (*State, error) {
	var s *State
	err := withFile(path, func(r io.Reader) (err error) {
		s, err = Decode(r)
		return err
	})
	return s, err
}

// readRecovered reads the generation at path as Verify does, keeping every
// section but the dats: the state recovery hands on, whose ReadDats reads
// them from the file when a restore asks, checked against the CRC seen here.
func readRecovered(path string) (*State, error) {
	var s *State
	var crc uint32
	err := withFile(path, func(r io.Reader) (err error) {
		s, crc, err = walk(r, true, func(*State) (DatSink, error) { return skipDats{}, nil })
		return err
	})
	if err != nil {
		return nil, err
	}
	s.gen, s.crc = path, crc
	return s, nil
}

// fileReaders recycles withFile's readers, as chunks does the codec's
// staging buffers: one per generation read back.
var fileReaders = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

// withFile runs read over the file at path. The small default bufio buffer
// batches the walker's 8-byte length reads into one read call, while its
// chunk-sized section reads exceed the buffer and go straight to the file,
// uncopied.
func withFile(path string, read func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := fileReaders.Get().(*bufio.Reader)
	br.Reset(f)
	defer func() {
		br.Reset(nil) // a pooled reader holds no file
		fileReaders.Put(br)
	}()
	return read(br)
}
