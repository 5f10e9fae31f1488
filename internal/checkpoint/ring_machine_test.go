package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"op2ca/internal/leakcheck"
)

var (
	errInjectedSync   = errors.New("fsync: input/output error (injected)")
	errInjectedVerify = errors.New("read-back: input/output error (injected)")
	errAbandon        = errors.New("killed between stage and commit (injected)")
)

// ringMachine drives one ring through a random sequence of operations and
// failures beside a model of what the ring must then hold: which generations
// are live (and what each decodes to, at what length), which commit error is
// owed to the caller, which files the failures left behind.
type ringMachine struct {
	t    *testing.T
	rng  *rand.Rand
	dir  string
	spec Spec
	// standalone machines run a ring that owns its list of one spare, the
	// others a ring built on shared, a list of spareMax opened beside it.
	standalone bool
	shared     *Spares
	spareMax   int
	r          *Ring
	bystander  map[string][]byte // files the ring must never touch

	next        int            // the number the next committed generation takes
	live        []int          // committed generations on disk, newest first
	notes       map[int]string // per live generation: what it decodes to
	sizes       map[int]int64  // and its encoded length
	owed        error          // the commit error no Write or Flush has returned yet
	abandoned   map[int]bool   // staged and never committed: "<gen>.tmp" is on disk
	quarantined map[int]bool
	written     int // generations committed since the ring was last empty
	// The ring object's own counters (reset when it is reopened).
	committed, commitErrors, verifyFailures int
}

// state is a snapshot of a random size, so a recycled file is as often longer
// as shorter than the generation written over it.
func (m *ringMachine) state(note string) *State {
	s := sampleState()
	s.Note = note
	s.Dats[0][0] = make([]float64, m.rng.Intn(6000))
	for i := range s.Dats[0][0] {
		s.Dats[0][0][i] = float64(i)
	}
	return s
}

// open builds the ring anew over the same path, as the next process would: a
// new Keep, and a new spares list (whose opening sweeps the old one's files).
func (m *ringMachine) open() {
	m.spec.Keep = 1 + m.rng.Intn(3)
	var err error
	if m.standalone {
		m.spareMax = 1
		m.r, err = NewRing(m.spec)
	} else {
		m.spareMax = m.rng.Intn(4)
		if m.shared, err = OpenSpares(m.dir, m.spareMax); err == nil {
			m.r, err = m.shared.NewRing(m.spec)
		}
	}
	if err != nil {
		m.t.Fatalf("open: %v", err)
	}
	m.next, m.owed, m.written = 0, nil, len(m.live)
	if len(m.live) > 0 {
		m.next = m.live[0] + 1
	}
	m.committed, m.commitErrors, m.verifyFailures = 0, 0, 0
	if n := len(m.names(spareSuffix)); n != 0 {
		m.t.Fatalf("reopening left %d spare files of the earlier ring", n)
	}
}

// names lists the ring directory's entries ending in suffix, bystanders aside.
func (m *ringMachine) names(suffix string) []string {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		m.t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if _, ok := m.bystander[e.Name()]; !ok && strings.HasSuffix(e.Name(), suffix) {
			out = append(out, e.Name())
		}
	}
	return out
}

// returned checks what a Write or a Flush returned against the error owed.
func (m *ringMachine) returned(op string, err error) {
	m.t.Helper()
	if !errors.Is(err, m.owed) {
		m.t.Fatalf("%s returned %v, the ring owes %v", op, err, m.owed)
	}
	m.owed = nil
}

// commit records generation seq as committed.
func (m *ringMachine) commit(seq int, s *State) {
	m.live = slices.Insert(m.live, 0, seq)
	m.notes[seq], m.sizes[seq] = s.Note, int64(len(encoded(m.t, s)))
	for _, old := range m.live[min(len(m.live), m.spec.Keep):] {
		delete(m.notes, old)
		delete(m.sizes, old)
	}
	m.live = m.live[:min(len(m.live), m.spec.Keep)]
	m.next = seq + 1
	m.written++
	m.committed++
}

// write is one Ring.Write under the named failure ("" for none).
func (m *ringMachine) write(step int, failure string) {
	t, r := m.t, m.r
	// Write joins the commit in flight before anything else; joining it here
	// changes nothing but lets the test re-arm the seam without racing it.
	r.join()
	seq := m.next
	gen := r.genPath(seq)
	s := m.state(fmt.Sprintf("step=%d", step))
	encode, undo := encodeTo(s), func() {}
	r.fault = nil
	if failure == "stage" && m.abandoned[seq] {
		failure = "encode" // the name the directory would take is the leftover's
	}
	switch failure {
	case "encode":
		encode = func(w io.Writer) error { return encodeTo(s)(&failAfter{w: w, n: 100}) }
	case "stage":
		// The temporary file's name is taken by a directory: neither a spare
		// can be renamed there nor a file created.
		if err := os.Mkdir(gen+".tmp", 0o755); err != nil {
			t.Fatal(err)
		}
		undo = func() { os.Remove(gen + ".tmp") }
	case "rename":
		if err := os.MkdirAll(filepath.Join(gen, "x"), 0o755); err != nil {
			t.Fatal(err)
		}
		undo = func() { os.RemoveAll(gen) }
	case "sync":
		r.fault = func(step string) error {
			if step == "sync" {
				return errInjectedSync
			}
			return nil
		}
	case "verify":
		r.fault = func(step string) error {
			if step == "verify" {
				return errInjectedVerify
			}
			return nil
		}
	case "abandon":
		r.fault = func(step string) error {
			if step == "abandon" {
				return errAbandon
			}
			return nil
		}
	}
	owed := m.owed
	path, err := r.Write(encode)
	if owed != nil {
		// The generation before this one failed to commit: Write says so
		// and stages nothing.
		m.returned("Write", err)
		undo()
		return
	}
	if failure == "stage" {
		undo()
		if err == nil {
			t.Fatalf("Write with the temporary file refused returned no error")
		}
		return
	}
	delete(m.abandoned, seq) // its leftover, if any, is the file just staged over
	if failure == "encode" {
		if !errors.Is(err, errDiskFull) {
			t.Fatalf("Write with a failing encoder returned %v", err)
		}
		return
	}
	if err != nil || path != gen {
		t.Fatalf("Write = %q, %v; want generation %s staged", path, err, gen)
	}
	switch failure {
	case "":
		m.commit(seq, s)
	case "rename":
		if err := r.Flush(); err == nil {
			t.Fatalf("a refused rename went unreported")
		}
		undo()
		m.commitErrors++
	case "sync":
		m.owed = errInjectedSync
		m.commitErrors++
	case "verify":
		m.owed = errInjectedVerify
		m.quarantined[seq] = true
		m.commitErrors++
		m.verifyFailures++
	case "abandon":
		// The process dies here: the ring is dropped with its goroutine
		// over, and the next process opens the directory.
		r.join()
		m.abandoned[seq] = true
		m.check()
		m.open()
	}
}

// check joins the commit in flight and compares disk and ring with the model.
func (m *ringMachine) check() {
	t, r := m.t, m.r
	t.Helper()
	r.join()
	base := filepath.Base(m.spec.Path)
	var gens, tmps, quarantined []int
	spares := 0
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if want, ok := m.bystander[name]; ok {
			if got, err := os.ReadFile(filepath.Join(m.dir, name)); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("bystander %s was touched (read error %v)", name, err)
			}
			continue
		}
		if strings.HasSuffix(name, spareSuffix) {
			spares++
			continue
		}
		rest, ok := strings.CutPrefix(name, base+".g")
		if !ok {
			t.Fatalf("stray file %s", name)
		}
		list := &gens
		if d, ok := strings.CutSuffix(rest, ".tmp"); ok {
			rest, list = d, &tmps
		} else if d, ok := strings.CutSuffix(rest, quarantineSuffix); ok {
			rest, list = d, &quarantined
		}
		seq, err := strconv.Atoi(rest)
		if err != nil {
			t.Fatalf("stray file %s", name)
		}
		*list = append(*list, seq)
	}
	sortedKeys := func(set map[int]bool) []int {
		var out []int
		for k := range set {
			out = append(out, k)
		}
		slices.Sort(out)
		return out
	}
	slices.Sort(tmps)
	slices.Sort(quarantined)
	slices.Sort(gens)
	slices.Reverse(gens)
	if !slices.Equal(gens, m.live) {
		t.Fatalf("generations on disk %v, want %v", gens, m.live)
	}
	if !slices.Equal(tmps, sortedKeys(m.abandoned)) {
		t.Fatalf("temporary files on disk %v, want those of the abandoned generations %v", tmps, sortedKeys(m.abandoned))
	}
	if !slices.Equal(quarantined, sortedKeys(m.quarantined)) {
		t.Fatalf("quarantined files on disk %v, want %v", quarantined, sortedKeys(m.quarantined))
	}
	if spares > m.spareMax {
		t.Fatalf("%d spare files, the list is bounded at %d", spares, m.spareMax)
	}
	// The ring's record is the disk's, strictly descending.
	on := r.Generations()
	if len(on) != len(m.live) {
		t.Fatalf("ring records %+v, want generations %v", on, m.live)
	}
	decodable := 0
	for i, g := range on {
		if g.Seq != m.live[i] || g.Path != r.genPath(g.Seq) || (i > 0 && g.Seq >= on[i-1].Seq) {
			t.Fatalf("ring records %+v, want generations %v", on, m.live)
		}
		st, err := ReadFile(g.Path)
		if err != nil || st.Note != m.notes[g.Seq] {
			t.Fatalf("generation %d decodes to %+v, %v; want note %q", g.Seq, st, err, m.notes[g.Seq])
		}
		// A recycled file longer than the generation leaves no tail.
		if info, err := os.Stat(g.Path); err != nil || info.Size() != m.sizes[g.Seq] {
			t.Fatalf("generation %d is %d bytes on disk (%v), its encoding %d", g.Seq, info.Size(), err, m.sizes[g.Seq])
		}
		decodable++
	}
	if want := min(m.spec.Keep, m.written); decodable < want {
		t.Fatalf("%d generations decode, want at least min(keep %d, %d written)", decodable, m.spec.Keep, m.written)
	}
	stats := r.Stats()
	if stats.Committed != m.committed || stats.CommitErrors != m.commitErrors ||
		stats.Recycled > stats.Committed || r.VerifyFailures() != m.verifyFailures {
		t.Fatalf("ring counts %+v and %d verify failures, want %d committed, %d commit errors, %d verify failures",
			stats, r.VerifyFailures(), m.committed, m.commitErrors, m.verifyFailures)
	}
}

// TestRingStateMachine is the ring under random operation and failure: after
// any sequence of writes, flushes, reopens and clears, with a failure injected
// at every step a generation passes through — encoder, temporary file, fsync,
// rename, read-back — and with the process killed between stage and commit,
// at least min(keep, written) generations decode, numbering only ever goes
// up (a failed generation's number is the next one's, a committed one's is
// never used again), nothing but a committed generation is ever recorded,
// adopted or retired as one, a generation's file is exactly its encoding, and
// every commit error reaches the caller exactly once.
func TestRingStateMachine(t *testing.T) {
	defer leakcheck.Check(t)()
	failures := []string{"encode", "stage", "rename", "sync", "verify", "abandon"}
	recycled := 0
	for seed := int64(1); seed <= 24; seed++ {
		dir := t.TempDir()
		m := &ringMachine{t: t, rng: rand.New(rand.NewSource(seed)), dir: dir, standalone: seed%2 == 0,
			spec:      Spec{Every: 1, Path: filepath.Join(dir, "ck.bin")},
			bystander: map[string][]byte{}, notes: map[int]string{}, sizes: map[int]int64{},
			abandoned: map[int]bool{}, quarantined: map[int]bool{}}
		for _, name := range []string{"ck.bin.g900000.tmp", "ck.bin.g900001.quarantined", "ck.bin.gx", "ck.bin.g",
			"ck.binx.g000000", "other.g000001", ".ck.bin.x.spare", "ring.spare"} {
			m.bystander[name] = []byte("bystander " + name)
			if err := os.WriteFile(filepath.Join(dir, name), m.bystander[name], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		m.open()
		for step := 0; step < 60; step++ {
			switch p := m.rng.Intn(100); {
			case p < 45:
				m.write(step, "")
			case p < 70:
				m.write(step, failures[m.rng.Intn(len(failures))])
			case p < 80:
				m.returned("Flush", m.r.Flush())
			case p < 85:
				m.r.Clear()
				m.live, m.written = nil, 0
				clear(m.notes)
				clear(m.sizes)
			case p < 90:
				st, gen, tried, quarantined := m.r.RecoverNewest()
				if len(m.live) == 0 {
					if st != nil || tried != 0 {
						t.Fatalf("seed %d step %d: an empty ring recovered %+v after %d tries", seed, step, st, tried)
					}
				} else if st == nil || st.Note != m.notes[m.live[0]] || gen.Seq != m.live[0] || tried != 1 || quarantined != 0 {
					t.Fatalf("seed %d step %d: recovered %+v from %+v (tried %d, quarantined %d), want generation %d",
						seed, step, st, gen, tried, quarantined, m.live[0])
				}
			default:
				// A clean exit and the next process: whatever error the old
				// ring owed went with it.
				m.r.join()
				recycled += m.r.Stats().Recycled
				m.open()
			}
			if m.rng.Intn(2) == 0 {
				m.check()
			}
		}
		m.check()
		recycled += m.r.Stats().Recycled
		if m.shared != nil {
			m.shared.Close()
			if left := m.names(spareSuffix); len(left) != 0 {
				t.Errorf("seed %d: a closed spares list left %v", seed, left)
			}
		}
	}
	if recycled == 0 {
		t.Error("no generation was ever written over a spare file")
	}
}
