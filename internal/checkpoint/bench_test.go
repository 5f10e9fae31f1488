package checkpoint

import (
	"bytes"
	"io"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
)

// bigState is a snapshot of about mb megabytes shaped like a served job's:
// 8 ranks of 20 dats each.
func bigState(mb int) *State {
	const ranks, dats = 8, 20
	s := sampleState()
	s.Dats = make([][][]float64, ranks)
	per := mb << 20 / 8 / ranks / dats
	for r := range s.Dats {
		s.Dats[r] = make([][]float64, dats)
		for d := range s.Dats[r] {
			f := make([]float64, per)
			for i := range f {
				f[i] = float64(r*dats+d) + 1/float64(i+1)
			}
			s.Dats[r][d] = f
		}
	}
	s.ValidExec = make([]int64, dats)
	s.ValidNonexec = make([]int64, dats)
	return s
}

func encoded(tb testing.TB, s *State) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := Encode(&buf, s); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// encodeTo is the ring-write callback that encodes s.
func encodeTo(s *State) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := Encode(w, s)
		return err
	}
}

func benchRing(tb testing.TB) *Ring {
	tb.Helper()
	r, err := NewRing(Spec{Every: 1, Path: filepath.Join(tb.TempDir(), "ck.bin"), Keep: 3})
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// BenchmarkRingWrite is one generation through a ring in steady state: staged
// over the file of the generation it displaces, committed (fsync, rename,
// directory sync, read-back verification, retirement) behind the stage of the
// next.
func BenchmarkRingWrite(b *testing.B) {
	s := bigState(3)
	r := benchRing(b)
	for i := 0; i <= r.Spec().Keep; i++ { // the first Keep+1 generations create their files
		if _, err := r.Write(encodeTo(s)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(encoded(b, s))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Write(encodeTo(s)); err != nil {
			b.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if st := r.Stats(); st.Recycled != b.N {
		b.Errorf("%d of %d timed generations were written over a recycled file", st.Recycled, b.N)
	}
}

// BenchmarkRingWriteCold is the first generation of a new ring, stage and
// commit end to end: a created file, nothing to overlap with.
func BenchmarkRingWriteCold(b *testing.B) {
	s := bigState(3)
	b.SetBytes(int64(len(encoded(b, s))))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := benchRing(b)
		b.StartTimer()
		if _, err := r.Write(encodeTo(s)); err != nil {
			b.Fatal(err)
		}
		if err := r.Flush(); err != nil {
			b.Fatal(err)
		}
		if st := r.Stats(); st.Committed != 1 || st.Recycled != 0 {
			b.Fatalf("a new ring's first generation: %+v", st)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	raw := encoded(b, bigState(3))
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	raw := encoded(b, bigState(3))
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRingWriteAllocatesConstantBytes: a ring write moves the state through
// fixed-size buffers, and in steady state through recycled ones — neither
// half of a generation, the stage on the caller or the commit with its
// read-back behind it, allocates as much as one staging chunk, whatever the
// state's size. The commit is held at its first fault point until the stage
// has been read off the allocation counter; the bound is on the mean of the
// generations, so a stray allocation elsewhere in the process does not decide
// it.
func TestRingWriteAllocatesConstantBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a quarter of what is put back")
	}
	// A collection between two generations would empty the pools.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const gens = 8
	allocated := func(mb int) (stage, commit uint64) {
		s := bigState(mb)
		r := benchRing(t)
		staged := make(chan struct{})
		r.fault = func(step string) error {
			if step == "abandon" {
				<-staged
			}
			return nil
		}
		generation := func() (stage, commit uint64) {
			var m0, m1, m2 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if _, err := r.Write(encodeTo(s)); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			staged <- struct{}{}
			if err := r.Flush(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m2)
			return m1.TotalAlloc - m0.TotalAlloc, m2.TotalAlloc - m1.TotalAlloc
		}
		for i := 0; i <= r.Spec().Keep; i++ { // the first Keep+1 generations create their files and fill the pools
			generation()
		}
		for i := 0; i < gens; i++ {
			st, cm := generation()
			stage, commit = stage+st, commit+cm
		}
		return stage / gens, commit / gens
	}
	for _, mb := range []int{3, 12} {
		stage, commit := allocated(mb)
		t.Logf("a steady-state generation of a %d MB state allocates %d B staging and %d B committing", mb, stage, commit)
		if stage >= chunkLen || commit >= chunkLen {
			t.Errorf("%d MB state: a generation allocates %d B staging and %d B committing, want each below one %d B chunk",
				mb, stage, commit, chunkLen)
		}
	}
}
