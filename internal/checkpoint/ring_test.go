package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
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

// flush joins the ring's commit in flight, so the test may inspect the disk.
func flush(t *testing.T, r *Ring) {
	t.Helper()
	if err := r.Flush(); err != nil {
		t.Fatalf("ring flush: %v", err)
	}
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
	gens := r.Generations()
	if len(gens) != 3 {
		t.Fatalf("keep=3 after 5 writes: %d generations (%+v)", len(gens), gens)
	}
	for i, want := range []int{4, 3, 2} {
		if gens[i].Seq != want {
			t.Errorf("generation %d has seq %d, want %d (newest first)", i, gens[i].Seq, want)
		}
	}
	st, gen, tried, quarantined := r.RecoverNewest()
	if st == nil {
		t.Fatal("RecoverNewest found no generation")
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
	flush(t, r)
	// Chop the checksum off the newest generation: valid header, bad tail.
	info, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, info.Size()-9); err != nil {
		t.Fatal(err)
	}
	st, gen, tried, quarantined := r.RecoverNewest()
	if st == nil {
		t.Fatal("RecoverNewest found no generation")
	}
	if st.Note != "gen=0" || tried != 2 || quarantined != 1 {
		t.Errorf("RecoverNewest = note %q seq %d tried %d quarantined %d, want fallback to gen=0 with one quarantine",
			st.Note, gen.Seq, tried, quarantined)
	}
	if _, err := os.Stat(newest + quarantineSuffix); err != nil {
		t.Errorf("corrupt generation not quarantined: %v", err)
	}
	// The quarantined file is invisible to further recovery scans.
	if gens := r.Generations(); len(gens) != 1 {
		t.Fatalf("generations after quarantine = %+v", gens)
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
	if err == nil {
		err = r.Flush()
	}
	if err == nil || !strings.Contains(err.Error(), "verification") {
		t.Fatalf("garbage write accepted: %v", err)
	}
	if r.VerifyFailures() != 1 {
		t.Errorf("VerifyFailures = %d, want 1", r.VerifyFailures())
	}
	// The good generation is still the recovery point.
	st, _, _, _ := r.RecoverNewest()
	if st == nil || st.Note != "good" {
		t.Fatalf("recovery after failed write: %v", st)
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
		if gens := r.Generations(); len(gens) != 0 {
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
		gens := r.Generations()
		if len(gens) != 1 || gens[0].Path != got || gens[0].Seq != 1 {
			t.Fatalf("keep=%d: generations %+v; want only the newest", keep, gens)
		}
		st, gen, _, _ := r.RecoverNewest()
		if st == nil || st.Note != "b" || gen.Path != got {
			t.Fatalf("keep=%d: recovery: %+v %+v", keep, st, gen)
		}
		// A corrupt only generation is quarantined: a cold start, not an error.
		if err := os.Truncate(got, 10); err != nil {
			t.Fatal(err)
		}
		st, _, tried, quarantined := r.RecoverNewest()
		if st != nil || tried != 1 || quarantined != 1 {
			t.Fatalf("keep=%d: corrupt recovery: %+v tried %d quarantined %d", keep, st, tried, quarantined)
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
	flush(t, r)
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
	flush(t, r2)
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
				flush(t, r)
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
			if err == nil {
				err = r.Flush()
			}
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
			flush(t, r)
		})
	}
}

// onDisk lists the entries of dir whose names start with base, sorted.
func onDisk(t *testing.T, dir, base string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), base) {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestRingPathWithGlobMetacharacters is the regression test for the ring
// that listed its generations with filepath.Glob on the user's path: in a
// directory named "run[1]" the pattern matched nothing, so nothing was ever
// pruned, a reopened ring restarted its numbering at 0 over the snapshots it
// should have recovered from, and recovery cold-started silently. The
// directory is listed and the name matched literally now, whatever
// characters the path holds.
func TestRingPathWithGlobMetacharacters(t *testing.T) {
	for _, tc := range []struct{ dir, file string }{
		{"run[1]", "ck.bin"},
		{"a*b", "ck.bin"},
		{"q?", "ck.bin"},
		{`back\slash`, "ck.bin"},
		{"plain", "ck[0-9].bin"},
		{"plain", "c*k"},
		{"plain", "c?k"},
		{"plain", `c\k`},
		{"[a-z]*", `[*?\]`},
	} {
		t.Run(tc.dir+"/"+tc.file, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), tc.dir)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			spec := Spec{Every: 1, Path: filepath.Join(dir, tc.file), Keep: 2}
			r, err := NewRing(spec)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				writeGen(t, r, fmt.Sprintf("gen=%d", i))
			}
			flush(t, r)
			want := []string{tc.file + ".g000002", tc.file + ".g000003"}
			if got := onDisk(t, dir, tc.file); !slices.Equal(got, want) {
				t.Fatalf("keep=2 after 4 writes: on disk %v, want %v", got, want)
			}
			if gens := r.Generations(); len(gens) != 2 || gens[0].Seq != 3 || gens[1].Seq != 2 {
				t.Fatalf("generations %+v, want seq 3 then 2", gens)
			}

			// A reopened ring adopts them, recovers the newest and numbers on.
			r2, err := NewRing(spec)
			if err != nil {
				t.Fatal(err)
			}
			if gens := r2.Generations(); len(gens) != 2 || gens[0].Path != r.genPath(3) {
				t.Fatalf("reopened ring lists %+v, want the two generations on disk", gens)
			}
			st, gen, tried, quarantined := r2.RecoverNewest()
			if st == nil || st.Note != "gen=3" || gen.Seq != 3 || tried != 1 || quarantined != 0 {
				t.Fatalf("reopened ring recovered %+v from %+v (tried %d, quarantined %d), want gen=3",
					st, gen, tried, quarantined)
			}
			if p := writeGen(t, r2, "gen=4"); p != r.genPath(4) {
				t.Errorf("reopened ring wrote %s, want seq 4", p)
			}
			flush(t, r2)
			want = []string{tc.file + ".g000003", tc.file + ".g000004"}
			if got := onDisk(t, dir, tc.file); !slices.Equal(got, want) {
				t.Errorf("after the reopened ring's write: on disk %v, want %v", got, want)
			}
		})
	}
}

// TestRingKeepAcrossReopen: housekeeping works from the ring's own record of
// its generations (seeded by NewRing's one scan), so a ring reopened with a
// smaller Keep adopts everything on disk and its first write prunes down to
// the new bound — and a neighbour's files, quarantined snapshots and
// temporaries are never adopted.
func TestRingKeepAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.bin")
	r, err := NewRing(Spec{Every: 1, Path: path, Keep: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		writeGen(t, r, fmt.Sprintf("gen=%d", i))
	}
	flush(t, r)
	for _, bystander := range []string{"ck.bin.g000009.tmp", "ck.bin.g000008.quarantined", "ck.bin.gx", "ck.bin.g", "ck.binx.g000007", "other.g000001"} {
		if err := os.WriteFile(filepath.Join(dir, bystander), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r2, err := NewRing(Spec{Every: 1, Path: path, Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	if gens := r2.Generations(); len(gens) != 4 || gens[0].Seq != 3 || gens[3].Seq != 0 {
		t.Fatalf("reopened ring adopted %+v, want generations 3..0", gens)
	}
	writeGen(t, r2, "gen=4")
	if gens := r2.Generations(); len(gens) != 2 || gens[0].Seq != 4 || gens[1].Seq != 3 {
		t.Errorf("keep=2 after the reopened ring's write: %+v, want seq 4 then 3", gens)
	}
	want := []string{"ck.bin.g", "ck.bin.g000003", "ck.bin.g000004", "ck.bin.g000008.quarantined", "ck.bin.g000009.tmp", "ck.bin.gx", "ck.binx.g000007"}
	if got := onDisk(t, dir, "ck.bin"); !slices.Equal(got, want) {
		t.Errorf("on disk %v, want %v", got, want)
	}
	// Clear takes the ring's generations and nothing else; numbering goes on.
	r2.Clear()
	want = slices.DeleteFunc(want, func(n string) bool { return n == "ck.bin.g000003" || n == "ck.bin.g000004" })
	if got := onDisk(t, dir, "ck.bin"); !slices.Equal(got, want) || len(r2.Generations()) != 0 {
		t.Errorf("after Clear: on disk %v, want %v; on record %+v", got, want, r2.Generations())
	}
	if st, _, tried, _ := r2.RecoverNewest(); st != nil || tried != 0 {
		t.Errorf("a cleared ring recovered %+v after %d tries", st, tried)
	}
	if p := writeGen(t, r2, "gen=5"); !strings.HasSuffix(p, ".g000005") {
		t.Errorf("write after Clear landed at %s, want seq 5", p)
	}
	flush(t, r2)
}

// TestRingToleratesVanishedGenerations: a generation removed behind the
// ring's back is neither an error nor a corrupt snapshot — recovery passes
// over it without counting it, pruning forgets it.
func TestRingToleratesVanishedGenerations(t *testing.T) {
	r, err := NewRing(Spec{Every: 1, Path: filepath.Join(t.TempDir(), "ck.bin"), Keep: 3})
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for i := 0; i < 3; i++ {
		paths = append(paths, writeGen(t, r, fmt.Sprintf("gen=%d", i)))
	}
	flush(t, r)
	if err := os.Remove(paths[2]); err != nil {
		t.Fatal(err)
	}
	st, gen, tried, quarantined := r.RecoverNewest()
	if st == nil || st.Note != "gen=1" || gen.Seq != 1 || tried != 1 || quarantined != 0 {
		t.Fatalf("recovered %+v from %+v (tried %d, quarantined %d), want gen=1 on the first try", st, gen, tried, quarantined)
	}
	if gens := r.Generations(); len(gens) != 2 {
		t.Errorf("the vanished generation is still on record: %+v", gens)
	}
	if err := os.Remove(paths[0]); err != nil {
		t.Fatal(err)
	}
	writeGen(t, r, "gen=3")
	writeGen(t, r, "gen=4") // prunes gen=0, already gone
	if gens := r.Generations(); len(gens) != 3 || gens[0].Seq != 4 || gens[2].Seq != 1 {
		t.Errorf("after pruning past a vanished generation: %+v, want seq 4, 3, 1", gens)
	}
}
