package checkpoint

import (
	"bytes"
	"io"
	"path/filepath"
	"runtime"
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
// fixed-size buffers — what it allocates does not grow with the state.
func TestRingWriteAllocatesConstantBytes(t *testing.T) {
	allocated := func(mb int) uint64 {
		s := bigState(mb)
		r := benchRing(t)
		write := func() {
			if _, err := r.Write(encodeTo(s)); err != nil {
				t.Fatal(err)
			}
		}
		write() // first use of the directory and of the CRC tables
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		write()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := allocated(3), allocated(12)
	t.Logf("one ring write allocates %d B on a 3 MB state, %d B on a 12 MB state", small, large)
	if diff := int64(large) - int64(small); diff > 64<<10 || diff < -(64<<10) {
		t.Errorf("ring write allocation follows the state size: %d B at 3 MB, %d B at 12 MB", small, large)
	}
}
