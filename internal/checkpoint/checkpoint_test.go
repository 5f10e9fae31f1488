package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

func sampleState() *State {
	return &State{
		Fingerprint:  []byte(`{"depth":2}`),
		Note:         "iter=3",
		FaultSeq:     41,
		Clocks:       []float64{0.25, 1.0 / 3.0, math.Pi},
		ValidExec:    []int64{2, 0, -1},
		ValidNonexec: []int64{2, 1, 0},
		// Two written dats and one the snapshot omits (empty on every
		// rank); rank 0 owns no element of dat 1.
		Dats: [][][]float64{
			{{1, 2, 3}, {}, {}},
			{{-0.5, 1e-300}, {4}, {}},
		},
		Meta: []byte(`{"stats":null}`),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sampleState()
	var buf bytes.Buffer
	n, err := Encode(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("Encode reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, s)
	}
}

// wideState has sections on every side of the two buffer sizes: a dat that
// spans several chunks, a dat and a meta blob larger than allocChunk (which
// decode by growing, not by one make), and unaligned neighbours.
func wideState() *State {
	s := sampleState()
	ramp := func(n int) []float64 {
		f := make([]float64, n)
		for i := range f {
			f[i] = 1 / float64(i+1)
		}
		return f
	}
	s.Fingerprint = bytes.Repeat([]byte("f"), chunkLen+1)
	s.Dats = [][][]float64{
		{ramp(chunkLen/8 + 1), {}, ramp(3 * chunkLen / 8)},
		{ramp(2*allocChunk/8 + 3), {7}},
	}
	s.Meta = bytes.Repeat([]byte("m"), allocChunk+chunkLen+5)
	return s
}

func TestRoundTripWideSections(t *testing.T) {
	s := wideState()
	raw := encoded(t, s)
	// Through a reader that returns short counts, as any io.Reader may.
	got, err := Decode(iotest.HalfReader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Error("round trip of multi-chunk sections diverged")
	}
	if err := Verify(bytes.NewReader(raw)); err != nil {
		t.Errorf("Verify refuses what Decode accepts: %v", err)
	}
}

// TestDecodeNamesHeaderDamage: a wrong magic and a wrong version are
// reported as such (every other damage is TestCorruptionSweep's).
func TestDecodeNamesHeaderDamage(t *testing.T) {
	raw := encoded(t, sampleState())

	bad := append([]byte("NOTACKPT"), raw[8:]...)
	if _, err := Decode(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic = %v, want magic error", err)
	}

	wrongVer := append([]byte(nil), raw...)
	wrongVer[8] = 99
	if _, err := Decode(bytes.NewReader(wrongVer)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("wrong version = %v, want version error", err)
	}
}

// TestGoldenLayout pins the container's bytes for one tiny state — a rank
// with one dat it holds values of and one it omits — section by section. The
// trailer's CRC was computed outside this package (a bit-at-a-time CRC-32C,
// reflected polynomial 0x82F63B78), so the test also pins which CRC the
// format means.
func TestGoldenLayout(t *testing.T) {
	s := &State{
		Fingerprint: []byte("fp"), Note: "n", FaultSeq: 7,
		Clocks:    []float64{1.5},
		ValidExec: []int64{2}, ValidNonexec: []int64{-1},
		Dats: [][][]float64{{{0.5, -2}, {}}},
		Meta: []byte("{}"),
	}
	want, err := hex.DecodeString("" +
		"4f50324341434b50" + // magic
		"03000000" + // version
		"0200000000000000" + "6670" + // fingerprint
		"0100000000000000" + "6e" + // note
		"0700000000000000" + // faultSeq
		"0100000000000000" + "000000000000f83f" + // clocks
		"0100000000000000" + "0200000000000000" + "ffffffffffffffff" + // validity
		"0100000000000000" + "0200000000000000" + // ranks, dats of rank 0
		"0200000000000000" + "000000000000e03f" + "00000000000000c0" + // dat 0
		"0000000000000000" + // dat 1: an empty slab
		"0200000000000000" + "7b7d" + // meta
		"ef62866d" + "89000000") // CRC-32C, payload length (137)
	if err != nil {
		t.Fatal(err)
	}
	if got := encoded(t, s); !bytes.Equal(got, want) {
		t.Errorf("v%d layout moved:\n got %x\nwant %x", Version, got, want)
	}
	got, err := Decode(bytes.NewReader(want))
	if err != nil || !reflect.DeepEqual(got, s) {
		t.Errorf("golden bytes decode to %+v, %v", got, err)
	}
}

// TestOlderVersionsRejected: a file from the FNV-trailer format (same magic,
// version 1) or the whole-slab format (version 2: this container's framing
// and trailer, but every rank's full local slab in the dats section) is
// refused by the version check, by Decode and Verify alike, before anything
// else in it is interpreted.
func TestOlderVersionsRejected(t *testing.T) {
	for _, v := range []uint32{1, 2} {
		old := encoded(t, sampleState())
		binary.LittleEndian.PutUint32(old[len(magic):], v)
		want := fmt.Sprintf("checkpoint: format version %d, this build reads 3", v)
		if _, err := Decode(bytes.NewReader(old)); err == nil || err.Error() != want {
			t.Errorf("Decode(v%d) = %v, want %q", v, err, want)
		}
		if err := Verify(bytes.NewReader(old)); err == nil || err.Error() != want {
			t.Errorf("Verify(v%d) = %v, want %q", v, err, want)
		}
	}
}

// mutants returns every truncation of raw and raw with each single bit
// flipped, labelled.
func mutants(raw []byte) map[string][]byte {
	out := map[string][]byte{}
	for cut := 0; cut < len(raw); cut++ {
		out[fmt.Sprintf("truncate@%d", cut)] = raw[:cut]
	}
	for i := range raw {
		for bit := 0; bit < 8; bit++ {
			m := append([]byte(nil), raw...)
			m[i] ^= 1 << bit
			out[fmt.Sprintf("bitflip@%d.%d", i, bit)] = m
		}
	}
	return out
}

// agree fails the test unless Verify and Decode give data the same verdict,
// and returns it.
func agree(t *testing.T, label string, data []byte) error {
	t.Helper()
	_, derr := Decode(bytes.NewReader(data))
	verr := Verify(bytes.NewReader(data))
	if fmt.Sprint(derr) != fmt.Sprint(verr) {
		t.Errorf("%s: Decode says %v, Verify says %v", label, derr, verr)
	}
	return derr
}

// TestCorruptionSweep: every truncation and every single-bit flip of a
// snapshot is rejected, and Verify — the ring's read-back check — rejects
// exactly what Decode rejects, with the same error.
func TestCorruptionSweep(t *testing.T) {
	raw := encoded(t, sampleState())
	if err := agree(t, "pristine", raw); err != nil {
		t.Fatalf("pristine snapshot refused: %v", err)
	}
	for label, m := range mutants(raw) {
		if agree(t, label, m) == nil {
			t.Errorf("%s: corrupt snapshot accepted", label)
		}
	}
}

// TestLyingLengthAllocatesBoundedly: a length prefix far beyond what the
// stream holds fails at the stream's real end, having allocated no more
// than allocChunk ahead of it — not the gigabytes it claims.
func TestLyingLengthAllocatesBoundedly(t *testing.T) {
	s := sampleState()
	raw := encoded(t, s)
	clocksLen := len(magic) + 4 + 8 + len(s.Fingerprint) + 8 + len(s.Note) + 8
	for _, claim := range []uint64{allocChunk/8 + 1, 1 << 30, maxSectionLen} {
		lying := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint64(lying[clocksLen:], claim)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := agree(t, "lying clocks length", lying)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("claim of %d clocks accepted", claim)
		}
		// Decode's one section plus the two walks' chunk buffers.
		if got := after.TotalAlloc - before.TotalAlloc; got > allocChunk+4*chunkLen {
			t.Errorf("claim of %d clocks allocated %d bytes", claim, got)
		}
	}
	over := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(over[clocksLen:], maxSectionLen+1)
	if err := agree(t, "over-limit length", over); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("length above maxSectionLen = %v, want the limit error", err)
	}
}

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("every=5,path=ck.bin")
	if err != nil || spec.Every != 5 || spec.Path != "ck.bin" {
		t.Fatalf("ParseSpec = %+v, %v", spec, err)
	}
	if spec, err = ParseSpec("path=x, every=1"); err != nil || spec.Every != 1 || spec.Path != "x" {
		t.Fatalf("order/space variant = %+v, %v", spec, err)
	}
	if spec, err = ParseSpec("every=2,path=x,"); err != nil || spec != (Spec{Every: 2, Path: "x"}) {
		t.Fatalf("trailing comma = %+v, %v; the other spec grammars skip it", spec, err)
	}
	for _, bad := range []string{
		"", "every=5", "path=x", "every=0,path=x", "every=a,path=x", "bogus=1", "every",
		"every=-2,path=x",              // negative period
		"every=1,path=x,keep=-1",       // negative generation count
		"every=1,every=2,path=x",       // duplicate key
		"every=1,path=x,path=y",        // duplicate path
		"every=1,path=x,keep=2,keep=2", // duplicate keep, even with equal values
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestAtomicWriteAndReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.bin")
	s := sampleState()
	staged, err := stage(path, nil, encodeTo(s))
	if err != nil {
		t.Fatal(err)
	}
	if err := staged.commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temporary file left behind")
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Error("file round trip diverged")
	}
}

// TestChecksumFloats: the CRC a backend records for a dat its snapshots omit
// is the CRC-32C of the bytes Encode would have written for the values —
// whatever the staging buffer's size, however the values are split over
// calls — and computing it allocates nothing.
func TestChecksumFloats(t *testing.T) {
	f := make([]float64, 1500)
	for i := range f {
		f[i] = 1 / float64(i+1)
	}
	f[7], f[8] = math.NaN(), math.Inf(-1)
	raw := make([]byte, 0, 8*len(f))
	for _, v := range f {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
	}
	want := crc32.Checksum(raw, crc32.MakeTable(crc32.Castagnoli))
	for _, size := range []int{8, 24, 4096, 4099, 1 << 16} {
		buf := make([]byte, size)
		if got := ChecksumFloats(0, f, buf); got != want {
			t.Errorf("buffer of %d bytes: crc %#x, want %#x", size, got, want)
		}
		if got := ChecksumFloats(ChecksumFloats(0, f[:700], buf), f[700:], buf); got != want {
			t.Errorf("buffer of %d bytes, two calls: crc %#x, want %#x", size, got, want)
		}
	}
	buf := make([]byte, 4096)
	if n := testing.AllocsPerRun(100, func() { ChecksumFloats(0, f, buf) }); n != 0 {
		t.Errorf("ChecksumFloats allocates %v times per call", n)
	}
}
