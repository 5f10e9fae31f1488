package mesh

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// FuzzReadFV3D: a mesh file is external input (op2ca.LoadMesh, meshgen -in).
// ReadFV3D never panics; what it allocates is bounded by a constant multiple
// of the bytes it was given, whatever the header claims; and a mesh it accepts
// re-serialises to the bytes it was read from.
func FuzzReadFV3D(f *testing.F) {
	for _, m := range []*FV3D{Rotor(4, 3, 3), Box(2, 2, 2), Rotor(7, 5, 4)} {
		var buf bytes.Buffer
		if err := m.Write(&buf); err != nil {
			f.Fatal(err)
		}
		good := buf.Bytes()
		f.Add(good)
		f.Add(good[:len(good)/2])
		f.Add(good[:8+36+4])
		// TestMeshReadErrors' lying headers.
		for _, lie := range []struct {
			word int
			v    uint32
		}{{1, 9}, {4, 1 << 20}, {5, 1 << 29}, {5, 1 << 30}, {6, 1 << 28}, {7, 1 << 30}, {8, 1 << 30}} {
			data := bytes.Clone(good)
			binary.LittleEndian.PutUint32(data[8+4*lie.word:], lie.v)
			f.Add(data)
		}
	}
	f.Add([]byte{})
	f.Add([]byte(meshMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := ReadFV3D(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// An array doubles only after the stream filled it (readArray), so
		// nine arrays cost at most three times their bytes plus a chunk each; the fuzzing
		// engine's own goroutines account for the rest of the slack.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(4*len(data)+(1<<20)); got > bound {
			t.Errorf("reading %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := m.Write(&out); err != nil {
			t.Fatalf("accepted mesh does not serialise: %v", err)
		}
		if len(out.Bytes()) > len(data) || !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Errorf("accepted mesh re-serialises to %d bytes that are not the %d it was read from", out.Len(), len(data))
		}
	})
}
