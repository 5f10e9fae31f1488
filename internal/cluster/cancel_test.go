package cluster

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"op2ca/internal/checkpoint"
	"op2ca/internal/mesh"
	"op2ca/internal/partition"
)

// TestCancelLeavesRestorableGeneration is the contract job preemption and
// DELETE build on: a run cancelled mid-flight dies with a typed
// *CancelledError at an exchange boundary, every ring generation written
// before the cancellation point is complete and restorable, and resuming
// from the newest one on a fresh backend completes bitwise identical to an
// uninterrupted run.
func TestCancelLeavesRestorableGeneration(t *testing.T) {
	const (
		seed   = 17
		nloops = 3
		iters  = 6
		cut    = 3 // cancel after this many repetitions
		nparts = 3
	)
	m := mesh.Rotor(6, 5, 4)
	assign := partition.KWay(m.NodeAdjacency(), nparts)
	mkCfg := func(w ckptWorkload) Config {
		return Config{
			Prog: w.app.p, Primary: w.app.nodes, Assign: assign, NParts: nparts,
			Depth: nloops + 1, MaxChainLen: nloops, CA: true,
		}
	}

	// Uninterrupted reference run.
	cleanW := newCkptWorkload(m, seed, nloops)
	clean, err := New(mkCfg(cleanW))
	if err != nil {
		t.Fatal(err)
	}
	cleanW.run(clean, 0, iters, false)
	wantSum := clean.ChecksumDats()
	wantClock := clean.MaxClock()

	// Cancelled run: checkpoint into a generation ring after every
	// repetition, request cancellation between repetitions, and observe the
	// typed panic at the next exchange boundary.
	ring, err := checkpoint.NewRing(checkpoint.Spec{
		Every: 1, Keep: 3, Path: filepath.Join(t.TempDir(), "cancel.ck"),
	})
	if err != nil {
		t.Fatal(err)
	}
	firstW := newCkptWorkload(m, seed, nloops)
	first, err := New(mkCfg(firstW))
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < cut; it++ {
		firstW.run(first, it, it+1, false)
		note := fmt.Sprintf("iter=%d", it+1)
		if _, err := ring.Write(func(w io.Writer) error {
			return first.Checkpoint(w, note)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if first.CancelRequested() {
		t.Fatal("CancelRequested before Cancel")
	}
	first.Cancel()
	if !first.CancelRequested() {
		t.Fatal("CancelRequested false after Cancel")
	}
	cerr := func() (cerr *CancelledError) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("cancelled run completed without panicking")
			}
			var ok bool
			if cerr, ok = r.(*CancelledError); !ok {
				panic(r)
			}
		}()
		firstW.run(first, cut, iters, false)
		return nil
	}()
	if cerr.Exchange == 0 {
		t.Fatalf("CancelledError.Exchange = 0, want the boundary sequence number")
	}
	if cerr.Error() == "" {
		t.Fatal("empty CancelledError message")
	}

	// The newest generation written before the cancellation must recover
	// cleanly and carry the last pre-cancel note.
	st, gen, _, quarantined := ring.RecoverNewest()
	if st == nil {
		t.Fatal("RecoverNewest after cancel found no generation")
	}
	if quarantined != 0 {
		t.Fatalf("%d generations quarantined after cancel, want 0", quarantined)
	}
	if gen.Seq != cut-1 {
		t.Fatalf("recovered generation seq %d, want %d", gen.Seq, cut-1)
	}
	var doneIters int
	if _, err := fmt.Sscanf(st.Note, "iter=%d", &doneIters); err != nil {
		t.Fatalf("parse note %q: %v", st.Note, err)
	}
	if doneIters != cut {
		t.Fatalf("newest generation note %q, want iter=%d", st.Note, cut)
	}

	// Resume on a fresh backend and finish: bitwise identical to the
	// uninterrupted run.
	secondW := newCkptWorkload(m, seed, nloops)
	second, err := RestoreState(st, mkCfg(secondW))
	if err != nil {
		t.Fatal(err)
	}
	secondW.run(second, doneIters, iters, false)
	if got := second.ChecksumDats(); got != wantSum {
		t.Fatalf("resumed checksum %q != clean %q", got, wantSum)
	}
	if got := second.MaxClock(); got != wantClock {
		t.Fatalf("resumed clock %v != clean %v", got, wantClock)
	}
}

// TestCancelObservedMidChain pins the boundary semantics: a cancellation
// requested from a kernel function (mid-run, mid-chain) is not observed
// until the next exchange, never mid-kernel.
func TestCancelObservedMidChain(t *testing.T) {
	const (
		seed   = 29
		nloops = 3
		nparts = 3
	)
	m := mesh.Rotor(6, 5, 4)
	assign := partition.KWay(m.NodeAdjacency(), nparts)
	w := newCkptWorkload(m, seed, nloops)
	b, err := New(Config{
		Prog: w.app.p, Primary: w.app.nodes, Assign: assign, NParts: nparts,
		Depth: nloops + 1, MaxChainLen: nloops, CA: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One full repetition establishes a nonzero exchange sequence.
	w.run(b, 0, 1, false)
	seqBefore := b.ExchangeSeq()
	if seqBefore == 0 {
		t.Fatal("ExchangeSeq = 0 after a full repetition")
	}
	b.Cancel()
	defer func() {
		r := recover()
		ce, ok := r.(*CancelledError)
		if !ok {
			t.Fatalf("recovered %v, want *CancelledError", r)
		}
		if ce.Exchange != seqBefore {
			t.Fatalf("cancelled at exchange %d, want next boundary %d", ce.Exchange, seqBefore)
		}
	}()
	w.run(b, 1, 2, false)
	t.Fatal("run survived cancellation")
}
