package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeGen(t *testing.T, r *Ring, note string) string {
	t.Helper()
	s := sampleState()
	s.Note = note
	path, err := r.Write(encodeTo(s))
	if err != nil {
		t.Fatalf("ring write %q: %v", note, err)
	}
	return path
}

func TestRingRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Every: 1, Path: filepath.Join(dir, "ck.bin"), Keep: 3}
	r, err := NewRing(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		writeGen(t, r, fmt.Sprintf("gen=%d", i))
	}
	gens, err := r.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 3 {
		t.Fatalf("keep=3 after 5 writes: %d generations (%+v)", len(gens), gens)
	}
	for i, want := range []int{4, 3, 2} {
		if gens[i].Seq != want {
			t.Errorf("generation %d has seq %d, want %d (newest first)", i, gens[i].Seq, want)
		}
	}
	st, gen, tried, quarantined, err := r.RecoverNewest()
	if err != nil || st == nil {
		t.Fatalf("RecoverNewest: %v, state %v", err, st)
	}
	if st.Note != "gen=4" || gen.Seq != 4 || tried != 1 || quarantined != 0 {
		t.Errorf("RecoverNewest = note %q seq %d tried %d quarantined %d, want gen=4/4/1/0",
			st.Note, gen.Seq, tried, quarantined)
	}
}

func TestRingRecoveryQuarantinesCorruptNewest(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRing(Spec{Every: 1, Path: filepath.Join(dir, "ck.bin"), Keep: 3})
	if err != nil {
		t.Fatal(err)
	}
	writeGen(t, r, "gen=0")
	newest := writeGen(t, r, "gen=1")
	// Chop the checksum off the newest generation: valid header, bad tail.
	info, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, info.Size()-9); err != nil {
		t.Fatal(err)
	}
	st, gen, tried, quarantined, err := r.RecoverNewest()
	if err != nil || st == nil {
		t.Fatalf("RecoverNewest: %v, state %v", err, st)
	}
	if st.Note != "gen=0" || tried != 2 || quarantined != 1 {
		t.Errorf("RecoverNewest = note %q seq %d tried %d quarantined %d, want fallback to gen=0 with one quarantine",
			st.Note, gen.Seq, tried, quarantined)
	}
	if _, err := os.Stat(newest + quarantineSuffix); err != nil {
		t.Errorf("corrupt generation not quarantined: %v", err)
	}
	// The quarantined file is invisible to further recovery scans.
	gens, err := r.Generations()
	if err != nil || len(gens) != 1 {
		t.Fatalf("generations after quarantine = %+v, %v", gens, err)
	}
}

func TestRingWriteVerificationRejectsBadSnapshot(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRing(Spec{Every: 1, Path: filepath.Join(dir, "ck.bin"), Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	writeGen(t, r, "good")
	_, err = r.Write(func(w io.Writer) error {
		_, err := w.Write([]byte("not a checkpoint"))
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "verification") {
		t.Fatalf("garbage write accepted: %v", err)
	}
	if r.VerifyFailures != 1 {
		t.Errorf("VerifyFailures = %d, want 1", r.VerifyFailures)
	}
	// The good generation is still the recovery point.
	st, _, _, _, err := r.RecoverNewest()
	if err != nil || st == nil || st.Note != "good" {
		t.Fatalf("recovery after failed write: %v, %v", st, err)
	}
}

// TestRingKeepOne: keep=1 (and the unset Keep of a hand-built Spec) is a
// one-generation ring — numbered files pruned to the newest after each
// verified write, recovered and quarantined like any other ring.
func TestRingKeepOne(t *testing.T) {
	for _, keep := range []int{0, 1} {
		path := filepath.Join(t.TempDir(), "ck.bin")
		r, err := NewRing(Spec{Every: 1, Path: path, Keep: keep})
		if err != nil {
			t.Fatal(err)
		}
		if gens, _ := r.Generations(); len(gens) != 0 {
			t.Fatalf("keep=%d: empty ring lists %d generations", keep, len(gens))
		}
		writeGen(t, r, "a")
		got := writeGen(t, r, "b")
		if want := path + ".g000001"; got != want {
			t.Errorf("keep=%d: second write went to %s, want %s", keep, got, want)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("keep=%d: the bare path exists (%v); every snapshot is a numbered generation", keep, err)
		}
		gens, err := r.Generations()
		if err != nil || len(gens) != 1 || gens[0].Path != got || gens[0].Seq != 1 {
			t.Fatalf("keep=%d: generations %+v, %v; want only the newest", keep, gens, err)
		}
		st, gen, _, _, err := r.RecoverNewest()
		if err != nil || st == nil || st.Note != "b" || gen.Path != got {
			t.Fatalf("keep=%d: recovery: %+v %+v %v", keep, st, gen, err)
		}
		// A corrupt only generation is quarantined: a cold start, not an error.
		if err := os.Truncate(got, 10); err != nil {
			t.Fatal(err)
		}
		st, _, tried, quarantined, err := r.RecoverNewest()
		if err != nil || st != nil || tried != 1 || quarantined != 1 {
			t.Fatalf("keep=%d: corrupt recovery: %+v tried %d quarantined %d %v", keep, st, tried, quarantined, err)
		}
		if _, err := os.Stat(got + quarantineSuffix); err != nil {
			t.Errorf("keep=%d: no quarantined file: %v", keep, err)
		}
	}
}

func TestRingResumesNumbering(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Every: 1, Path: filepath.Join(dir, "ck.bin"), Keep: 4}
	r, err := NewRing(spec)
	if err != nil {
		t.Fatal(err)
	}
	writeGen(t, r, "x")
	writeGen(t, r, "y")
	// A second ring over the same path (supervised restart) continues the
	// numbering instead of overwriting the generations it would recover.
	r2, err := NewRing(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := writeGen(t, r2, "z")
	if !strings.HasSuffix(p, ".g000002") {
		t.Errorf("resumed ring wrote %s, want seq 2", p)
	}
}

func TestParseSpecKeep(t *testing.T) {
	spec, err := ParseSpec("every=2,path=ck.bin,keep=5")
	if err != nil || spec.Keep != 5 {
		t.Fatalf("ParseSpec keep = %+v, %v", spec, err)
	}
	for _, bad := range []string{"every=1,path=x,keep=0", "every=1,path=x,keep=-2", "every=1,path=x,keep=z"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// failAfter passes n bytes through to w, then fails every write.
type failAfter struct {
	w io.Writer
	n int
}

var errDiskFull = errors.New("no space left on device (injected)")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n, _ := f.w.Write(p[:f.n])
		f.n = 0
		return n, errDiskFull
	}
	f.n -= len(p)
	return f.w.Write(p)
}

// TestRingWriteFailuresLeaveRingIntact: a write that cannot complete —
// the encode callback failing mid-stream, the directory refusing the
// temporary file, the rename refused — returns the error, leaves no *.tmp
// behind and leaves the older generations byte for byte as they were; the
// ring's next write succeeds under the same generation number.
func TestRingWriteFailuresLeaveRingIntact(t *testing.T) {
	encodeInto := encodeTo(bigState(1))
	for _, tc := range []struct {
		name string
		// arrange breaks the ring's next write to path and returns the undo.
		arrange func(t *testing.T, dir, path string) (undo func())
		encode  func(w io.Writer) error
		want    error
	}{
		{name: "encode fails mid-stream",
			encode: func(w io.Writer) error { return encodeInto(&failAfter{w: w, n: 300 << 10}) },
			want:   errDiskFull},
		{name: "unwritable directory",
			arrange: func(t *testing.T, dir, _ string) func() {
				if os.Geteuid() == 0 {
					t.Skip("root ignores directory permissions")
				}
				os.Chmod(dir, 0o555)
				return func() { os.Chmod(dir, 0o755) }
			},
			encode: encodeInto, want: os.ErrPermission},
		{name: "rename refused",
			arrange: func(t *testing.T, _, path string) func() {
				// A non-empty directory where the generation should land.
				if err := os.MkdirAll(filepath.Join(path, "x"), 0o755); err != nil {
					t.Fatal(err)
				}
				return func() { os.RemoveAll(path) }
			},
			encode: encodeInto},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r, err := NewRing(Spec{Every: 1, Path: filepath.Join(dir, "ck.bin"), Keep: 3})
			if err != nil {
				t.Fatal(err)
			}
			older := map[string][]byte{}
			for _, note := range []string{"gen=0", "gen=1"} {
				p := writeGen(t, r, note)
				if older[p], err = os.ReadFile(p); err != nil {
					t.Fatal(err)
				}
			}
			next := r.genPath(2)
			undo := func() {}
			if tc.arrange != nil {
				undo = tc.arrange(t, dir, next)
			}
			_, err = r.Write(tc.encode)
			undo()
			if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
				t.Fatalf("Write = %v, want an error wrapping %v", err, tc.want)
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
				t.Errorf("temporary files left behind: %v", tmps)
			}
			for p, want := range older {
				if got, err := os.ReadFile(p); err != nil || !bytes.Equal(got, want) {
					t.Errorf("older generation %s changed (read error %v)", p, err)
				}
			}
			if p := writeGen(t, r, "gen=2"); p != next {
				t.Errorf("write after the failure landed at %s, want %s", p, next)
			}
		})
	}
}
