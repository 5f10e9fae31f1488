package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
// the ring accepted is one a recovery can decode. And every seventh mutant
// is driven through the recovery path a service's restart takes: it replaces
// the newest ring generation after recovery verified it and before the
// restore streams its dats, and the restore must fail with a
// *checkpoint.GenerationError, leave the mutant quarantined, and the next
// recovery must restore the generation before it.
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

	// A ring of two good generations; each mutant replaces the newest once
	// recovery has verified it. The newest is written back good for the next
	// mutant, and the ring reopened over the directory.
	spec := checkpoint.Spec{Every: 1, Path: filepath.Join(t.TempDir(), "ck"), Keep: 2}
	ring, err := checkpoint.NewRing(spec)
	if err != nil {
		t.Fatal(err)
	}
	var gens []string
	for range 2 {
		gen, err := ring.Write(func(w io.Writer) error { _, err := w.Write(good); return err })
		if err == nil {
			err = ring.Flush()
		}
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, gen)
	}
	older, newest := gens[0], gens[1]
	// The restores below share one build of the layouts, as a service's do.
	shared := cfg
	if shared.Layouts, err = NewLayouts(cfg); err != nil {
		t.Fatal(err)
	}
	recovered := func(label string, data []byte) {
		t.Helper()
		if err := os.WriteFile(newest, good, 0o644); err != nil {
			t.Fatal(err)
		}
		if ring, err = checkpoint.NewRing(spec); err != nil {
			t.Fatal(err)
		}
		st, gen, _, _ := ring.RecoverNewest()
		if st == nil || gen.Path != newest {
			t.Fatalf("%s: recovered %+v, want %s", label, gen, newest)
		}
		if err := os.WriteFile(newest, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var ge *checkpoint.GenerationError
		if b, err := RestoreState(st, shared); !errors.As(err, &ge) || !ge.Quarantined {
			if b != nil {
				b.Close()
			}
			t.Fatalf("%s: restore from a generation changed since recovery = %v, want a quarantining *checkpoint.GenerationError", label, err)
		}
		st, gen, _, _ = ring.RecoverNewest()
		if st == nil || gen.Path != older {
			t.Fatalf("%s: after the quarantine recovered %+v, want %s", label, gen, older)
		}
		b, err := RestoreState(st, shared)
		if err != nil {
			t.Fatalf("%s: restore from the generation before: %v", label, err)
		}
		b.Close()
	}

	check := func(label string, data []byte, ring bool) {
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
		if ring {
			recovered(label, data)
		}
	}

	// Truncation at every length: empty, mid-magic, mid-version, at and
	// inside every section boundary, and the torn-tail shapes (trailer
	// partially or wholly missing past a valid header).
	n := len(good)
	for cut := 0; cut < n; cut++ {
		check(fmt.Sprintf("truncate@%d", cut), good[:cut], cut%7 == 0)
	}

	// Bit-flip sweep over every byte: header, every section, dat payloads
	// and the trailing checksum itself.
	mut := make([]byte, n)
	for i := 0; i < n; i++ {
		copy(mut, good)
		mut[i] ^= 0x40
		check(fmt.Sprintf("bitflip@%d", i), mut, i%7 == 0)
	}
}
