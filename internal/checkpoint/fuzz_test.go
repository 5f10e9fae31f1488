package checkpoint

import (
	"bytes"
	"runtime"
	"testing"
)

// seedCorpus adds valid snapshots of several shapes (one with a section that
// spans chunks, one taken before any dat was written: every slab empty) and
// the corruption sweep's mutants of one of them.
func seedCorpus(f *testing.F) {
	f.Helper()
	raw := encoded(f, sampleState())
	f.Add(raw)
	f.Add(encoded(f, &State{}))
	unwritten := sampleState()
	unwritten.Dats = [][][]float64{{{}, {}, {}}, {{}, {}, {}}}
	f.Add(encoded(f, unwritten))
	chunky := sampleState()
	chunky.Dats[0][1] = make([]float64, chunkLen/8+1)
	f.Add(encoded(f, chunky))
	for _, m := range mutants(raw) {
		f.Add(m)
	}
}

// FuzzDecode: Decode never panics, never allocates out of proportion to
// the bytes it was given (a lying length prefix may cost one allocChunk, not
// what it claims), and whatever it accepts is a snapshot in canonical form:
// encoding the decoded state reproduces the accepted bytes.
func FuzzDecode(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Decode(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// Append-grown sections and slice headers cost a small multiple of
		// the input; the fuzzing engine's own goroutines account for the rest
		// of the slack.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(data)+4*allocChunk); got > limit {
			t.Errorf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		again := encoded(t, s)
		if len(again) > len(data) || !bytes.Equal(again, data[:len(again)]) {
			t.Errorf("accepted %d bytes that re-encode differently (%d bytes)", len(data), len(again))
		}
	})
}

// FuzzVerifyAgreesWithDecode: the ring's read-back check accepts exactly
// the streams a recovery could decode, for the same reason.
func FuzzVerifyAgreesWithDecode(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		agree(t, "fuzz input", data)
	})
}
