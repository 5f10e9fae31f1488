package cluster

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"op2ca/internal/checkpoint"
	"op2ca/internal/mesh"
	"op2ca/internal/partition"
)

// TestRestoreCorruptionSweep: Restore must reject any damaged snapshot with
// a typed error and never panic — the property the supervisor's quarantine
// path rests on. The sweep covers truncation at every length (the
// valid-header/bad-tail shape a torn write leaves behind among them) and a
// bit-flip at every single byte offset (every content byte is covered by the
// trailer, and flipping the trailer itself breaks the match). For every
// mutant, checkpoint.Verify — the ring's read-back check, which keeps
// nothing — must reach the verdict checkpoint.Decode reaches: a generation
// the ring accepted is one a recovery can decode.
func TestRestoreCorruptionSweep(t *testing.T) {
	const nloops = 2
	m := mesh.Rotor(6, 5, 4)
	assign := partition.Block(m.NNodes, 2)
	w := newCkptWorkload(m, 5, nloops)
	cfg := Config{Prog: w.app.p, Primary: w.app.nodes, Assign: assign, NParts: 2,
		Depth: nloops + 1, MaxChainLen: nloops, CA: true}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.run(b, 0, 2, false)
	var snap bytes.Buffer
	if err := b.Checkpoint(&snap, "sweep"); err != nil {
		t.Fatal(err)
	}
	good := snap.Bytes()

	// restore attempts a full cluster.Restore of data into a fresh
	// process-equivalent configuration, converting any panic into a
	// distinguishable error so the sweep reports it as a failure rather
	// than dying.
	restore := func(data []byte) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("PANIC: %v", r)
			}
		}()
		fresh := newCkptWorkload(m, 5, nloops)
		cfg2 := cfg
		cfg2.Prog = fresh.app.p
		cfg2.Primary = fresh.app.nodes
		_, _, err = Restore(bytes.NewReader(data), cfg2)
		return err
	}

	if err := restore(good); err != nil {
		t.Fatalf("pristine snapshot refused: %v", err)
	}

	check := func(label string, data []byte) {
		t.Helper()
		_, derr := checkpoint.Decode(bytes.NewReader(data))
		if verr := checkpoint.Verify(bytes.NewReader(data)); (verr == nil) != (derr == nil) {
			t.Errorf("%s: Decode says %v, Verify says %v", label, derr, verr)
		}
		err := restore(data)
		if err == nil {
			t.Errorf("%s: corrupt snapshot accepted", label)
			return
		}
		if strings.HasPrefix(err.Error(), "PANIC:") {
			t.Errorf("%s: restore panicked: %v", label, err)
		}
	}

	// Truncation at every length: empty, mid-magic, mid-version, at and
	// inside every section boundary, and the torn-tail shapes (trailer
	// partially or wholly missing past a valid header).
	n := len(good)
	for cut := 0; cut < n; cut++ {
		check(fmt.Sprintf("truncate@%d", cut), good[:cut])
	}

	// Bit-flip sweep over every byte: header, every section, dat payloads
	// and the trailing checksum itself.
	mut := make([]byte, n)
	for i := 0; i < n; i++ {
		copy(mut, good)
		mut[i] ^= 0x40
		check(fmt.Sprintf("bitflip@%d", i), mut)
	}
}
