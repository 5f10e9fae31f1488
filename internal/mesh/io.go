package mesh

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Binary mesh format: a fixed magic/version header followed by the FV3D
// fields in declaration order, each array length-prefixed. Everything is
// little-endian; int32 for counts and connectivity, float64 for geometry.
const (
	meshMagic   = "OP2CAMSH"
	meshVersion = 1
)

// Write serialises the mesh.
func (m *FV3D) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(meshMagic); err != nil {
		return err
	}
	header := []int32{
		meshVersion,
		int32(m.NI), int32(m.NJ), int32(m.NK),
		int32(m.NNodes), int32(m.NEdges), int32(m.NBedges),
		int32(m.NPedges), int32(m.NCbnd),
	}
	if err := binary.Write(bw, binary.LittleEndian, header); err != nil {
		return err
	}
	for _, arr := range [][]int32{m.EdgeNodes, m.BedgeNodes, m.BedgeGroups, m.PedgeNodes, m.CbndNodes} {
		if err := writeI32s(bw, arr); err != nil {
			return err
		}
	}
	for _, arr := range [][]float64{m.Coords, m.Volumes, m.EdgeWeights, m.BedgeWeights} {
		if err := writeF64s(bw, arr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readChunk is the staging buffer an array is read through, and the most an
// array allocates before the stream has proved it holds the data.
const readChunk = 32 << 10

// ReadFV3D deserialises a mesh written by Write, validating structure. The
// header is untrusted: an array's memory grows with the bytes actually read,
// so a header claiming more than the stream holds ends in an error at the
// stream's real end, not in an allocation of the claimed size.
func ReadFV3D(r io.Reader) (*FV3D, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(meshMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("mesh: reading magic: %w", err)
	}
	if string(magic) != meshMagic {
		return nil, fmt.Errorf("mesh: bad magic %q", magic)
	}
	header := make([]int32, 9)
	if err := binary.Read(br, binary.LittleEndian, header); err != nil {
		return nil, fmt.Errorf("mesh: reading header: %w", err)
	}
	if header[0] != meshVersion {
		return nil, fmt.Errorf("mesh: unsupported version %d", header[0])
	}
	m := &FV3D{
		NI: int(header[1]), NJ: int(header[2]), NK: int(header[3]),
		NNodes: int(header[4]), NEdges: int(header[5]), NBedges: int(header[6]),
		NPedges: int(header[7]), NCbnd: int(header[8]),
	}
	if m.NI < 0 || m.NJ < 0 || m.NK < 0 ||
		m.NNodes < 0 || m.NEdges < 0 || m.NBedges < 0 || m.NPedges < 0 || m.NCbnd < 0 {
		return nil, fmt.Errorf("mesh: negative counts in header")
	}
	// Array lengths are int32 on disk: a count whose array (2 or 3 values per
	// element) does not fit one was not written by Write.
	if m.NNodes > math.MaxInt32/3 || m.NEdges > math.MaxInt32/3 ||
		m.NBedges > math.MaxInt32/3 || m.NPedges > math.MaxInt32/2 {
		return nil, fmt.Errorf("mesh: header counts overflow the format's int32 array lengths")
	}
	// NI*NJ alone may exceed every valid node count; stop before a third
	// factor could overflow int64.
	grid := int64(m.NI) * int64(m.NJ)
	if grid <= math.MaxInt32 {
		grid *= int64(m.NK)
	}
	if grid != int64(m.NNodes) {
		return nil, fmt.Errorf("mesh: header dimensions %dx%dx%d do not make %d nodes", m.NI, m.NJ, m.NK, m.NNodes)
	}
	ar := &arrayReader{r: br, buf: make([]byte, readChunk)}
	m.EdgeNodes = ar.i32s(2 * m.NEdges)
	m.BedgeNodes = ar.i32s(m.NBedges)
	m.BedgeGroups = ar.i32s(m.NBedges)
	m.PedgeNodes = ar.i32s(2 * m.NPedges)
	m.CbndNodes = ar.i32s(m.NCbnd)
	m.Coords = ar.f64s(3 * m.NNodes)
	m.Volumes = ar.f64s(m.NNodes)
	m.EdgeWeights = ar.f64s(3 * m.NEdges)
	m.BedgeWeights = ar.f64s(3 * m.NBedges)
	if ar.err != nil {
		return nil, ar.err
	}
	// Connectivity validation: everything must index real nodes.
	for _, arr := range [][]int32{m.EdgeNodes, m.BedgeNodes, m.PedgeNodes, m.CbndNodes} {
		for i, v := range arr {
			if v < 0 || int(v) >= m.NNodes {
				return nil, fmt.Errorf("mesh: connectivity entry %d = %d out of range [0,%d)", i, v, m.NNodes)
			}
		}
	}
	return m, nil
}

// SaveFile writes the mesh to path.
func (m *FV3D) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a mesh from path.
func LoadFile(path string) (*FV3D, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFV3D(f)
}

func writeI32s(w io.Writer, arr []int32) error {
	if err := binary.Write(w, binary.LittleEndian, int32(len(arr))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, arr)
}

func writeF64s(w io.Writer, arr []float64) error {
	if err := binary.Write(w, binary.LittleEndian, int32(len(arr))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, arr)
}

// arrayReader reads the length-prefixed arrays of a mesh file through one
// staging buffer, folding the first error: after one, every read returns nil.
type arrayReader struct {
	r   io.Reader
	buf []byte // len readChunk
	err error
}

func (ar *arrayReader) i32s(want int) []int32 {
	return readArray(ar, want, 4, func(p []byte) int32 { return int32(binary.LittleEndian.Uint32(p)) })
}

func (ar *arrayReader) f64s(want int) []float64 {
	return readArray(ar, want, 8, func(p []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(p)) })
}

// readArray reads one array of want values, width bytes each. The slice
// starts at one chunk and doubles only once the stream has filled it, capped
// at want: a complete array ends in a slice of exactly its size, and a lying
// length prefix costs at most twice the bytes the stream really held.
func readArray[T any](ar *arrayReader, want, width int, get func([]byte) T) []T {
	if ar.err != nil {
		return nil
	}
	var n int32
	if err := binary.Read(ar.r, binary.LittleEndian, &n); err != nil {
		ar.err = fmt.Errorf("mesh: reading array length: %w", err)
		return nil
	}
	if int(n) != want {
		ar.err = fmt.Errorf("mesh: array length %d, header implies %d", n, want)
		return nil
	}
	arr := make([]T, 0, min(want, len(ar.buf)/width))
	for len(arr) < want {
		if len(arr) == cap(arr) {
			arr = append(make([]T, 0, min(want, 2*cap(arr))), arr...)
		}
		p := ar.buf[:width*min(cap(arr)-len(arr), len(ar.buf)/width)]
		if _, err := io.ReadFull(ar.r, p); err != nil {
			if err == io.EOF { // the prefix promised values: running out is never clean
				err = io.ErrUnexpectedEOF
			}
			ar.err = fmt.Errorf("mesh: reading %d-byte values: %w", width, err)
			return nil
		}
		for ; len(p) > 0; p = p[width:] {
			arr = append(arr, get(p))
		}
	}
	return arr
}
