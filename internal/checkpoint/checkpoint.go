// Package checkpoint defines the on-disk snapshot format of the simulated
// runtime's backend state, for checkpoint/restart: what a restore cannot
// rebuild from the configuration it restores into — the owned values of the
// dats written since the backend was constructed — plus the halo-validity
// state, virtual clocks, the fault/exchange sequence counter, and an opaque
// backend-defined continuation blob (stats, plan-cache fingerprints,
// autotuner state, which dats the snapshot holds). Halo copies and
// never-written dats are not stored: a halo copy is its owner's value, and a
// never-written dat is still what the restoring program declares (see
// State.Dats). The container is versioned and integrity-checked, so a
// truncated or bit-flipped file is rejected rather than silently resumed
// from.
//
// Layout (all integers little-endian):
//
//	offset  size  content
//	0       8     magic "OP2CACKP"
//	8       4     format version (uint32, currently 3)
//	12      ...   sections, each length-prefixed (uint64 count/len):
//	              fingerprint JSON, note, faultSeq (uint64), clocks
//	              ([]float64 bit patterns), validity (exec/nonexec int64
//	              pairs per dat), dats ([rank][dat][]float64), meta JSON
//	end-8   4     CRC-32C (Castagnoli) of every preceding byte
//	end-4   4     low 32 bits of the count of those bytes
//
// Version 3 has version 2's framing; what changed is the meaning of the dats
// section (owned prefixes of written dats, empty slabs otherwise, where
// version 2 held every rank's whole local slab), so a version 2 file is
// refused like any other foreign version.
//
// Float64 values are stored as their IEEE-754 bit patterns, so a snapshot
// restores the exact values — the restore invariant (resumed run bitwise
// identical to the uninterrupted one) depends on it.
//
// CRC-32C rather than a multiplicative hash: it is guaranteed to detect every
// error burst of up to 32 bits and every 1-3 bit error at snapshot sizes —
// the torn-sector and flipped-bit damage a ring exists to survive — and
// amd64 and arm64 compute it in hardware, so integrity costs a fraction of
// the copy it rides on. The length word makes the byte count part of the
// check independently of the section prefixes that add up to it.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"slices"
	"sync"
)

const magic = "OP2CACKP"

// Version is the current container format version. Decode rejects files
// written by other versions: state layout is coupled to the runtime, and a
// cross-version resume would violate the restore invariant silently.
const Version = 3

// maxSectionLen bounds any single length prefix, so a corrupt header cannot
// drive a multi-terabyte allocation before the checksum is verified.
const maxSectionLen = 1 << 38

// chunkLen is the size of the one staging buffer an encode or a decode
// moves its bytes through: large enough that the writes, reads and CRC
// updates it batches are no longer per-value, small enough to stay in the
// L1/L2 cache between the conversion, the CRC and the copy out. A multiple
// of 8, so float sections move in whole values.
const chunkLen = 32 << 10

// chunks recycles the staging buffers: a job writes a generation per cadence
// and reads each one back, and a buffer per stream was the codec's whole
// allocation. An encode and the read-back of the generation before it run at
// the same time (see Ring.Write), so each takes a buffer of its own. A buffer
// is handed out as it was put back: the encoder only appends to it and the
// decoder fills what it is about to read (next), so neither sees the stream
// the buffer last carried.
var chunks = sync.Pool{New: func() any { return new([chunkLen]byte) }}

// castagnoli returns the CRC-32C table. hash/crc32 builds it (about 9 KB of
// heap) on first request, so it is asked for per encode or decode, not at
// package initialisation: a program that links this package and never
// checkpoints holds none of it.
func castagnoli() *crc32.Table { return crc32.MakeTable(crc32.Castagnoli) }

// State is one complete backend snapshot.
type State struct {
	// Fingerprint is the canonical JSON of the producing configuration's
	// shape (see cluster's configFingerprint). Restore refuses a snapshot
	// whose fingerprint does not match the restoring configuration: the
	// restore invariant only holds for a process-equivalent backend.
	Fingerprint []byte
	// Note is caller-defined resume context (e.g. the iteration number or
	// a benchmark resume point), opaque to this package.
	Note string
	// FaultSeq is the exchange sequence counter keying deterministic fault
	// decisions; restoring it keeps the resumed run's fault schedule
	// aligned with the uninterrupted one.
	FaultSeq uint64
	// Clocks are the per-rank virtual clocks.
	Clocks []float64
	// ValidExec and ValidNonexec are the per-dat halo validity depths.
	ValidExec    []int64
	ValidNonexec []int64
	// Dats holds, per rank and dat, what the restoring side cannot rebuild:
	// Dats[rank][dat] is the rank's owned values of the dat in layout order
	// (owned elements are the storage prefix) when the dat has been written
	// since the backend was constructed, and empty otherwise. Halo copies are
	// refilled from their owners on restore; a never-written dat keeps the
	// values the restoring program declares, which the backend checks
	// against a CRC it records in Meta.
	Dats [][][]float64
	// Meta is a backend-defined JSON continuation blob (stats, plan-cache
	// keys, autotuner state), opaque to this package.
	Meta []byte

	// gen and crc are set on a state Ring.RecoverNewest returns, which holds
	// everything but Dats: the generation file ReadDats reads them from, and
	// the trailer CRC of the bytes recovery verified there.
	gen string
	crc uint32
}

// DatSink is where a snapshot's dats section goes when it is streamed
// (DecodeInto, State.ReadDats) instead of built into State.Dats: a restore
// hands it the storage the values belong in, so nothing snapshot-sized is
// allocated on the way.
type DatSink interface {
	// Count is told the section's rank count (rank -1), then each rank's dat
	// count before that rank's values; an error refuses the snapshot.
	Count(rank int, n uint64) error
	// Slab returns where the n values of dat d on rank r go — a slice of
	// length n — or nil to drop them; an error refuses the snapshot.
	Slab(rank, d int, n uint64) ([]float64, error)
}

// refusal carries a DatSink's error out of the decoder, so that it reaches
// the caller as the sink returned it and is not taken for damage.
type refusal struct{ error }

// encoder stages every output byte in one chunk buffer and hands the chunk
// to w (folding it into the CRC) when it fills: w sees chunkLen-sized writes
// whatever the section sizes are, so a bare *os.File needs no buffering of
// its own. The first write error is folded, so Encode reads as straight-line
// code; n totals the bytes handed to w.
type encoder struct {
	w   io.Writer
	buf []byte // staged bytes, cap chunkLen
	tab *crc32.Table
	crc uint32
	n   int64
	err error
}

// flush hands the staged bytes to w.
func (e *encoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		e.crc = crc32.Update(e.crc, e.tab, e.buf)
		var n int
		n, e.err = e.w.Write(e.buf)
		e.n += int64(n)
	}
	e.buf = e.buf[:0]
}

// room returns the free space of the chunk, at least need bytes of it
// (need <= chunkLen), flushing first if the chunk is too full.
func (e *encoder) room(need int) int {
	if cap(e.buf)-len(e.buf) < need {
		e.flush()
	}
	return cap(e.buf) - len(e.buf)
}

func (e *encoder) u64(v uint64) {
	e.room(8)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

func (e *encoder) u32(v uint32) {
	e.room(4)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

func (e *encoder) raw(p []byte) {
	for len(p) > 0 {
		n := min(len(p), e.room(1))
		e.buf = append(e.buf, p[:n]...)
		p = p[n:]
	}
}

func (e *encoder) bytes(p []byte) {
	e.u64(uint64(len(p)))
	e.raw(p)
}

func (e *encoder) floats(f []float64) {
	e.u64(uint64(len(f)))
	for len(f) > 0 {
		n := min(len(f), e.room(8)/8)
		at := len(e.buf)
		e.buf = e.buf[:at+8*n]
		dst := e.buf[at:]
		for i, v := range f[:n] {
			binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
		}
		f = f[n:]
	}
}

// ChecksumFloats folds f into crc: the CRC-32C of the bytes Encode writes for
// the values (little-endian bit patterns), continued from crc (0 starts one).
// The backend records it for the dats a snapshot omits, so a restore can tell
// the restoring program declares the same values. The values are staged
// through buf (at least 8 bytes, a few KB to batch the CRC's calls), which is
// the caller's because hash/crc32 lets no buffer it is handed stay on the
// stack: one buffer serves every dat of a backend, where a local array was a
// heap allocation per call.
func ChecksumFloats(crc uint32, f []float64, buf []byte) uint32 {
	if len(buf) < 8 {
		panic("checkpoint: ChecksumFloats needs a buffer of at least 8 bytes")
	}
	tab := castagnoli()
	for len(f) > 0 {
		n := min(len(f), len(buf)/8)
		for i, v := range f[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		crc = crc32.Update(crc, tab, buf[:8*n])
		f = f[n:]
	}
	return crc
}

// Encode writes the snapshot to w and returns the encoded size in bytes.
// The trailer covers every preceding byte. The state is read once and
// nothing proportional to it is allocated.
func Encode(w io.Writer, s *State) (int64, error) {
	if len(s.ValidExec) != len(s.ValidNonexec) {
		return 0, fmt.Errorf("checkpoint: validity slices disagree: %d exec vs %d nonexec",
			len(s.ValidExec), len(s.ValidNonexec))
	}
	chunk := chunks.Get().(*[chunkLen]byte)
	defer chunks.Put(chunk)
	e := &encoder{w: w, buf: chunk[:0], tab: castagnoli()}
	e.raw([]byte(magic))
	e.u32(Version)
	e.bytes(s.Fingerprint)
	e.bytes([]byte(s.Note))
	e.u64(s.FaultSeq)
	e.floats(s.Clocks)
	e.u64(uint64(len(s.ValidExec)))
	for i := range s.ValidExec {
		e.u64(uint64(s.ValidExec[i]))
		e.u64(uint64(s.ValidNonexec[i]))
	}
	e.u64(uint64(len(s.Dats)))
	for _, rank := range s.Dats {
		e.u64(uint64(len(rank)))
		for _, dat := range rank {
			e.floats(dat)
		}
	}
	e.bytes(s.Meta)
	// The trailer cannot cover itself: settle the CRC and the length over
	// what is staged, then send the trailer behind it.
	e.flush()
	crc, payload := e.crc, e.n
	e.u32(crc)
	e.u32(uint32(payload))
	e.flush()
	if e.err != nil {
		return e.n, fmt.Errorf("checkpoint: encode: %w", e.err)
	}
	return e.n, nil
}

// decoder mirrors encoder: it pulls the stream through one chunk buffer,
// folding every byte it reads into the CRC and the first read error into
// err. With keep unset it checks everything Decode checks — magic, version,
// every length bound, the trailer — and materialises nothing: sections are
// read through the chunk and dropped. With a sink the dats section goes
// there instead (see walk). It reads exactly one snapshot from r, never past
// the trailer.
type decoder struct {
	r    io.Reader
	keep bool
	sink DatSink
	buf  []byte // len chunkLen
	tab  *crc32.Table
	crc  uint32
	n    int64
	err  error
	// refused is the first error of the sink's (or of walk's open): the
	// stream is read on to the trailer all the same, the rest of the dats
	// dropped, so that damage is still reported as damage.
	refused error
}

// refuse records a sink's error and drops the dats that follow it.
func (d *decoder) refuse(err error) {
	if err != nil && d.refused == nil {
		d.refused = err
		d.sink = skipDats{}
	}
}

// next reads the next min(rem, chunkLen) bytes of the stream into the chunk
// and returns them; nil once an error is set.
func (d *decoder) next(rem uint64) []byte {
	if d.err != nil {
		return nil
	}
	p := d.buf[:min(rem, uint64(len(d.buf)))]
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.err = err
		return nil
	}
	d.crc = crc32.Update(d.crc, d.tab, p)
	d.n += int64(len(p))
	return p
}

func (d *decoder) u64() uint64 {
	if p := d.next(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (d *decoder) u32() uint32 {
	if p := d.next(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (d *decoder) len() uint64 {
	n := d.u64()
	if d.err == nil && n > maxSectionLen {
		d.err = fmt.Errorf("section length %d exceeds limit", n)
		return 0
	}
	return n
}

// allocChunk bounds how much a section allocates ahead of the stream
// proving it actually holds the data: a corrupt length prefix below
// maxSectionLen could still claim hundreds of gigabytes, and an upfront
// make of that size would kill the process before the trailer check ever
// rejects the file. A section up to allocChunk is allocated whole; a larger
// one grows as its chunks arrive, so a lying prefix fails with an I/O error
// at the stream's real end.
const allocChunk = 1 << 20

// bytes reads one length-prefixed byte section.
func (d *decoder) bytes() []byte {
	n := d.len()
	var out []byte
	if d.keep {
		out = make([]byte, 0, min(n, allocChunk))
	}
	for rem := n; rem > 0; {
		p := d.next(rem)
		if p == nil {
			return nil
		}
		if d.keep {
			out = append(out, p...)
		}
		rem -= uint64(len(p))
	}
	return out
}

// floats reads one length-prefixed float64 section.
func (d *decoder) floats() []float64 {
	n := d.len()
	if !d.keep {
		d.values(n, nil)
		return nil
	}
	out := make([]float64, 0, min(n, allocChunk/8))
	for rem := n; rem > 0; {
		p := d.next(8 * rem)
		if p == nil {
			return nil
		}
		c := len(p) / 8
		at := len(out)
		out = slices.Grow(out, c)[:at+c]
		decodeFloats(out[at:], p)
		rem -= uint64(c)
	}
	return out
}

// values reads the next n float64 values into dst (length n), or drops them
// when dst is nil.
func (d *decoder) values(n uint64, dst []float64) {
	for rem := n; rem > 0; {
		p := d.next(8 * rem)
		if p == nil {
			return
		}
		c := len(p) / 8
		if dst != nil {
			decodeFloats(dst[:c], p)
			dst = dst[c:]
		}
		rem -= uint64(c)
	}
}

// decodeFloats converts the little-endian bit patterns in p into dst.
func decodeFloats(dst []float64, p []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
}

// dats reads the dats section: into State.Dats when keeping without a sink,
// through the sink when there is one, nowhere otherwise.
func (d *decoder) dats(s *State) {
	nRanks := d.len()
	if d.sink != nil && d.err == nil {
		d.refuse(d.sink.Count(-1, nRanks))
	}
	for r := uint64(0); r < nRanks && d.err == nil; r++ {
		nDats := d.len()
		if d.sink != nil {
			if d.err == nil {
				d.refuse(d.sink.Count(int(r), nDats))
			}
			for i := uint64(0); i < nDats && d.err == nil; i++ {
				n := d.len()
				if d.err != nil {
					break
				}
				dst, err := d.sink.Slab(int(r), int(i), n)
				if d.refuse(err); err != nil {
					dst = nil
				}
				d.values(n, dst)
			}
			continue
		}
		var rank [][]float64
		if d.keep {
			rank = make([][]float64, 0, min(nDats, 1024))
		}
		for i := uint64(0); i < nDats && d.err == nil; i++ {
			if f := d.floats(); d.keep {
				rank = append(rank, f)
			}
		}
		if d.keep {
			s.Dats = append(s.Dats, rank)
		}
	}
}

// walk is the one section walker behind Decode, Verify, DecodeInto, recovery
// and State.ReadDats. keep materialises every section but the dats; open,
// when given, is called once the sections before the dats are read and
// returns the sink they stream to, and without it the dats are kept in
// State.Dats when keep is set. It returns the trailer's CRC beside the state.
// An error of open's or the sink's comes back as a refusal, with the CRC,
// once the stream has passed every check — damage is reported first, as
// Decode reports it.
func walk(r io.Reader, keep bool, open func(*State) (DatSink, error)) (*State, uint32, error) {
	chunk := chunks.Get().(*[chunkLen]byte)
	defer chunks.Put(chunk)
	d := &decoder{r: r, keep: keep, buf: chunk[:], tab: castagnoli()}
	if m := d.next(uint64(len(magic))); m != nil && string(m) != magic {
		return nil, 0, fmt.Errorf("checkpoint: bad magic %q (not a checkpoint file)", m)
	}
	if v := d.u32(); d.err == nil && v != Version {
		return nil, 0, fmt.Errorf("checkpoint: format version %d, this build reads %d", v, Version)
	}
	s := &State{}
	s.Fingerprint = d.bytes()
	s.Note = string(d.bytes())
	s.FaultSeq = d.u64()
	s.Clocks = d.floats()
	// Collection sizes grow by append as elements actually decode, not by
	// one upfront make of the claimed count: a corrupt count below
	// maxSectionLen must fail at the stream's real end, not allocate
	// terabytes first.
	nValid := d.len()
	for i := uint64(0); i < nValid && d.err == nil; i++ {
		exec, nonexec := int64(d.u64()), int64(d.u64())
		if keep {
			s.ValidExec = append(s.ValidExec, exec)
			s.ValidNonexec = append(s.ValidNonexec, nonexec)
		}
	}
	if open != nil && d.err == nil {
		sink, err := open(s)
		d.sink = sink
		d.refuse(err)
	}
	d.dats(s)
	s.Meta = d.bytes()
	if d.err != nil {
		return nil, 0, fmt.Errorf("checkpoint: decode: %w", d.err)
	}
	// The trailer is read outside the CRC it carries.
	crc, payload := d.crc, uint32(d.n)
	t := d.next(8)
	if t == nil {
		return nil, 0, fmt.Errorf("checkpoint: decode trailer: %w", d.err)
	}
	if got := binary.LittleEndian.Uint32(t); got != crc {
		return nil, 0, fmt.Errorf("checkpoint: checksum mismatch: file %#x, content %#x (truncated or corrupt)", got, crc)
	}
	if got := binary.LittleEndian.Uint32(t[4:]); got != payload {
		return nil, 0, fmt.Errorf("checkpoint: length mismatch: file says %d bytes, content has %d (truncated or corrupt)", got, payload)
	}
	if d.refused != nil {
		return nil, crc, refusal{d.refused}
	}
	return s, crc, nil
}

// Decode reads one snapshot, verifying magic, version, every length bound
// and the trailer.
func Decode(r io.Reader) (*State, error) {
	s, _, err := walk(r, true, nil)
	return s, err
}

// Verify checks one snapshot exactly as Decode does — it accepts a stream
// if and only if Decode would — without building the State: memory use is
// one chunk buffer whatever the snapshot's size. It is the read-back check
// behind every ring write.
func Verify(r io.Reader) error {
	_, _, err := walk(r, false, nil)
	return err
}

// DecodeInto reads one snapshot as Decode does, except that its dats section
// streams into the sink open returns instead of into State.Dats: open is
// called with the sections before the dats (fingerprint, note, fault
// sequence, clocks, validity) already in h, and the State returned is h with
// the meta section added and no Dats. So the sink has seen the values before
// the trailer is checked: a caller whose storage they reached must treat an
// error as leaving it undefined. Once open or the sink returns an error the
// rest of the dats is dropped and the stream checked on to its trailer: a
// damaged stream is reported as Decode reports it, and otherwise the error
// of open's or the sink's is returned as it is.
func DecodeInto(r io.Reader, open func(h *State) (DatSink, error)) (*State, error) {
	s, _, err := walk(r, true, open)
	if r, ok := err.(refusal); ok {
		return nil, r.error
	}
	return s, err
}

// ReadDats hands the state's dats section to sink as DecodeInto would: from
// Dats, or — for a state Ring.RecoverNewest returned, which recovery read
// without them — from its generation, streamed through one chunk, which must
// still be the bytes recovery verified (the whole file is checked again, and
// its trailer must carry the CRC recovery saw). A sink's error on those bytes
// is returned as it is; a generation that no longer reads back — damaged,
// changed or gone — is quarantined and reported as a *GenerationError, as
// recovery treats one that fails to decode.
func (s *State) ReadDats(sink DatSink) error {
	if s.gen == "" {
		return feed(s.Dats, sink)
	}
	_, err := s.reread(false, func(*State) (DatSink, error) { return sink, nil })
	return err
}

// Load reads the dats of a state Ring.RecoverNewest returned into Dats, so
// that it no longer depends on its generation: for a caller that keeps the
// state while its ring goes on writing and retiring generations. A state
// that holds its dats is left as it is; a generation that no longer reads
// back is a *GenerationError, as in ReadDats.
func (s *State) Load() error {
	if s.gen == "" {
		return nil
	}
	whole, err := s.reread(true, nil)
	if err != nil {
		return err
	}
	s.Dats, s.gen, s.crc = whole.Dats, "", 0
	return nil
}

// reread walks the state's generation again (walk's keep and open) and
// checks that it is still the bytes recovery verified. A refusal of those
// bytes by open or its sink is returned as it is; any other failure
// quarantines the generation and is a *GenerationError.
func (s *State) reread(keep bool, open func(*State) (DatSink, error)) (*State, error) {
	var again *State
	var crc uint32
	err := withFile(s.gen, func(r io.Reader) (err error) {
		again, crc, err = walk(r, keep, open)
		return err
	})
	r, refused := err.(refusal)
	switch {
	case (err == nil || refused) && crc != s.crc:
		err = fmt.Errorf("checkpoint: content CRC %#x, recovery verified %#x", crc, s.crc)
	case refused:
		return nil, r.error
	case err == nil:
		return again, nil
	}
	ge := &GenerationError{Path: s.gen, Err: err}
	if !errors.Is(err, fs.ErrNotExist) {
		if _, qerr := Quarantine(s.gen); qerr != nil {
			return nil, fmt.Errorf("checkpoint: %s no longer reads back (%v) and quarantine failed: %v", s.gen, err, qerr)
		}
		ge.Quarantined = true
	}
	return nil, ge
}

// skipDats is the sink recovery reads a generation through: it drops the
// dats section, which ReadDats reads again when a restore asks for it.
type skipDats struct{}

func (skipDats) Count(int, uint64) error                  { return nil }
func (skipDats) Slab(int, int, uint64) ([]float64, error) { return nil, nil }

// feed hands materialised dats to sink.
func feed(dats [][][]float64, sink DatSink) error {
	if err := sink.Count(-1, uint64(len(dats))); err != nil {
		return err
	}
	for r, rank := range dats {
		if err := sink.Count(r, uint64(len(rank))); err != nil {
			return err
		}
		for d, vals := range rank {
			dst, err := sink.Slab(r, d, uint64(len(vals)))
			if err != nil {
				return err
			}
			copy(dst, vals)
		}
	}
	return nil
}

// GenerationError reports a recovered generation (see State.ReadDats) that
// no longer read back as recovery verified it: changed, truncated or gone
// between the two reads. It is out of the ring's way — quarantined, or
// already gone — so the next recovery scan passes over it to the one before.
type GenerationError struct {
	Path string
	// Quarantined says the file was renamed aside (false: it had vanished).
	Quarantined bool
	Err         error
}

func (e *GenerationError) Error() string {
	what := "vanished"
	if e.Quarantined {
		what = "quarantined"
	}
	return fmt.Sprintf("checkpoint: generation %s no longer reads back as recovered, %s: %v", e.Path, what, e.Err)
}

func (e *GenerationError) Unwrap() error { return e.Err }

// MarshalFingerprint renders any JSON-encodable fingerprint value in
// canonical form (encoding/json sorts map keys, so equal values produce
// equal bytes).
func MarshalFingerprint(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: fingerprint: %w", err)
	}
	return b, nil
}
