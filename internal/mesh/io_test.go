package mesh

import (
	"bytes"
	"encoding/binary"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestMeshRoundtrip(t *testing.T) {
	for name, m := range map[string]*FV3D{
		"rotor": Rotor(7, 5, 4),
		"box":   Box(4, 3, 5),
	} {
		var buf bytes.Buffer
		if err := m.Write(&buf); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		got, err := ReadFV3D(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if got.NNodes != m.NNodes || got.NEdges != m.NEdges ||
			got.NBedges != m.NBedges || got.NPedges != m.NPedges || got.NCbnd != m.NCbnd {
			t.Fatalf("%s: counts differ: %+v vs %+v", name, got, m)
		}
		for i := range m.EdgeNodes {
			if got.EdgeNodes[i] != m.EdgeNodes[i] {
				t.Fatalf("%s: EdgeNodes[%d] differs", name, i)
			}
		}
		for i := range m.Coords {
			if got.Coords[i] != m.Coords[i] {
				t.Fatalf("%s: Coords[%d] differs", name, i)
			}
		}
		for i := range m.EdgeWeights {
			if got.EdgeWeights[i] != m.EdgeWeights[i] {
				t.Fatalf("%s: EdgeWeights[%d] differs", name, i)
			}
		}
		for i := range m.BedgeGroups {
			if got.BedgeGroups[i] != m.BedgeGroups[i] {
				t.Fatalf("%s: BedgeGroups[%d] differs", name, i)
			}
		}
	}
}

func TestMeshFileRoundtrip(t *testing.T) {
	m := Rotor(6, 5, 4)
	path := filepath.Join(t.TempDir(), "rotor.op2ca")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNodes != m.NNodes || got.NEdges != m.NEdges {
		t.Fatal("file roundtrip lost elements")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.op2ca")); err == nil {
		t.Error("loading a missing file should fail")
	}
}

func TestMeshReadErrors(t *testing.T) {
	m := Rotor(4, 3, 3)
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte("NOTAMESH"), good[8:]...),
		"truncated":  good[:len(good)/2],
		"bad header": append([]byte(meshMagic), bytes.Repeat([]byte{0xff}, 36)...),
	}
	for name, data := range cases {
		if _, err := ReadFV3D(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}

	// Headers that lie. relabel returns the good file with header word i
	// (0 = version, 1-3 = NI NJ NK, 4-8 = the element counts) set to v.
	relabel := func(i int, v int32) []byte {
		data := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(data[8+4*i:], uint32(v))
		return data
	}
	// The 48-byte file: a header claiming 2^29 edges, the matching length
	// prefix, and not one byte of data. It must fail at the stream's end
	// having allocated a chunk, not the 4 GB it claims.
	lying := binary.LittleEndian.AppendUint32(relabel(5, 1<<29)[:8+36], 1<<30)
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"claims 2^29 edges, holds none", lying, "unexpected EOF"},
		{"4x3x3 relabelled NI=9", relabel(1, 9), "do not make"},
		{"negative NI", relabel(1, -4), "negative"},
		{"NI*NJ*NK wraps int64", func() []byte {
			d := relabel(1, math.MaxInt32)
			binary.LittleEndian.PutUint32(d[8+4*2:], math.MaxInt32)
			binary.LittleEndian.PutUint32(d[8+4*3:], math.MaxInt32)
			return d
		}(), "do not make"},
		{"2*NEdges overflows int32", relabel(5, 1<<30), "overflow"},
		{"3*NNodes overflows int32", relabel(4, math.MaxInt32/3+1), "overflow"},
		{"3*NBedges overflows int32", relabel(6, math.MaxInt32/3+1), "overflow"},
		{"2*NPedges overflows int32", relabel(7, 1<<30), "overflow"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadFV3D(bytes.NewReader(tc.data))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", tc.name, err, tc.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: rejecting a %d-byte file allocated %d bytes", tc.name, len(tc.data), got)
		}
	}

	// Corrupt a connectivity entry to an out-of-range node.
	corrupt := append([]byte(nil), good...)
	// EdgeNodes starts after magic(8) + header(9*4) + length prefix(4).
	off := 8 + 36 + 4
	corrupt[off] = 0xff
	corrupt[off+1] = 0xff
	corrupt[off+2] = 0xff
	corrupt[off+3] = 0x7f
	if _, err := ReadFV3D(bytes.NewReader(corrupt)); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Errorf("corrupt connectivity: got %v, want out-of-range error", err)
	}
}
