package runspec

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"op2ca/internal/checkpoint"
	"op2ca/internal/core"
	"op2ca/internal/leakcheck"
)

// mapInstances is the Instances contract at its plainest: what is stored is
// what every later Load of the key returns.
type mapInstances struct {
	mu            sync.Mutex
	kept          map[InstanceKey]*Instance
	loads, stores int
}

func (m *mapInstances) Load(k InstanceKey) *Instance {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.loads++
	return m.kept[k]
}

func (m *mapInstances) Store(k InstanceKey, in *Instance) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stores++
	m.kept[k] = in
}

// prog is the program the instance declares.
func (in *Instance) prog() *core.Program {
	if in.mg != nil {
		return in.mg.Prog
	}
	return in.hy.Prog
}

// programHash hashes everything a program declares: every set's name and
// size, every map's name, arity and values, every dat's name, dim and values.
func programHash(p *core.Program) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, s := range p.Sets {
		h.Write([]byte(s.Name))
		word(uint64(s.Size))
	}
	for _, m := range p.Maps {
		h.Write([]byte(m.Name))
		word(uint64(m.Arity))
		for _, v := range m.Values {
			word(uint64(uint32(v)))
		}
	}
	for _, d := range p.Dats {
		h.Write([]byte(d.Name))
		word(uint64(d.Dim))
		for _, v := range d.Data {
			word(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// TestInstanceKeyCoversDeclarations: descriptions that differ only in fields
// outside InstanceKey declare byte-identical programs, and ones that differ in
// a field of the key declare different ones — so one stored instance serves
// exactly the descriptions whose key it is kept under.
func TestInstanceKeyCoversDeclarations(t *testing.T) {
	type change struct {
		name string
		mut  func(*Spec)
	}
	outside := map[string][]change{
		"mgcfd": {
			{"no-nchains", func(s *Spec) { s.NChains = 0 }},
			{"more-nchains", func(s *Spec) { s.NChains = 7 }},
		},
		"hydra": {
			{"safe", func(s *Spec) { s.Safe = true }},
			{"chains", func(s *Spec) { s.Chains = "chain gradl maxhe=3\n" }},
		},
	}
	inside := map[string][]change{
		"mgcfd": {
			{"levels", func(s *Spec) { s.Levels = 1 }},
			{"app", func(s *Spec) { s.App, s.Levels, s.NChains = "hydra", 0, 0 }},
		},
		"hydra": {{"app", func(s *Spec) { s.App, s.Levels = "mgcfd", 2 }}},
	}
	for _, app := range []string{"mgcfd", "hydra"} {
		declared := func(c change) (InstanceKey, uint64) {
			t.Helper()
			s := small(app)
			c.mut(&s)
			r, err := s.Resolve()
			if err != nil {
				t.Fatalf("%s/%s: %v", app, c.name, err)
			}
			return r.instanceKey(), programHash(r.declare(r.newMesh()).prog())
		}
		baseKey, base := declared(change{"base", func(*Spec) {}})
		for _, c := range append(outside[app],
			change{"partitioner", func(s *Spec) { s.Partitioner = "block" }},
			change{"ranks", func(s *Spec) { s.Ranks = 5 }},
			change{"op2", func(s *Spec) { s.Backend = "op2" }},
			change{"seq", func(s *Spec) { s.Backend = "seq" }},
			change{"overlap", func(s *Spec) { s.Overlap = true }},
			change{"faults", func(s *Spec) { s.Faults = "drop=0.1,crash=rank0@3,seed=2" }},
		) {
			if key, h := declared(c); key != baseKey || h != base {
				t.Errorf("%s/%s: key %+v and program %#x, want the base's %+v and %#x", app, c.name, key, h, baseKey, base)
			}
		}
		for _, c := range append(inside[app], change{"mesh", func(s *Spec) { s.MeshNodes = 900 }}) {
			if key, h := declared(c); key == baseKey || h == base {
				t.Errorf("%s/%s: key %+v and program %#x, want both to differ from the base's", app, c.name, key, h)
			}
		}
	}
}

// TestAttemptsShareTheInstance (run under -race): every distributed Problem
// holds one declared app, and every attempt on it is built on that one. With
// no store the Problem declares its own: a fresh attempt, a restore from one
// of its ring's generations and a second fresh attempt share it. With an
// Instances store the Problems of one key share one: two attempts stepping at
// once, a restore from one's ring, and the attempts of later Problems. Every
// attempt ends bitwise where the first did, and each shared program is as
// declared afterwards.
func TestAttemptsShareTheInstance(t *testing.T) {
	defer leakcheck.Check(t)()
	for _, app := range []string{"mgcfd", "hydra"} {
		s := small(app)
		s.CheckpointEvery = 1
		// problem resolves s under store and builds its Problem.
		problem := func(store Instances) (*Run, *Problem) {
			t.Helper()
			r, err := s.Resolve()
			if err != nil {
				t.Error(err)
				return nil, nil
			}
			r.Instances = store
			p, err := r.NewProblem()
			if err != nil {
				t.Error(err)
				return nil, nil
			}
			return r, p
		}
		// drive builds one attempt of r over p from st, drives it, writing
		// generations to ring when one is given, and reads its outcome.
		drive := func(r *Run, p *Problem, ring *checkpoint.Ring, st *checkpoint.State) (Outcome, *core.Program) {
			t.Helper()
			if p == nil {
				return Outcome{}, nil
			}
			a, err := r.BuildFrom(p, st)
			if err != nil {
				t.Error(err)
				return Outcome{}, nil
			}
			defer a.Close()
			if err := a.Drive(ring); err != nil {
				t.Error(err)
			}
			return a.Outcome(), a.prog
		}
		same := func(leg string, out, want Outcome) {
			if out.Checksum != want.Checksum || out.Residual != want.Residual || out.MaxClock != want.MaxClock {
				t.Errorf("%s: %s ends at (%s, %g, %g), the first attempt at (%s, %g, %g)", app, leg,
					out.Checksum, out.Residual, out.MaxClock, want.Checksum, want.Residual, want.MaxClock)
			}
		}
		newRing := func(keep int) *checkpoint.Ring {
			t.Helper()
			ring, err := checkpoint.NewRing(checkpoint.Spec{Every: 1, Path: t.TempDir() + "/ck.bin", Keep: keep})
			if err != nil {
				t.Fatal(err)
			}
			return ring
		}

		r, own := problem(nil)
		if own == nil || own.Instance == nil {
			t.Fatalf("%s: a run without a store kept no instance in its Problem", app)
		}
		ownHash := programHash(own.Instance.prog())
		ring := newRing(s.Iters)
		want, prog := drive(r, own, ring, nil)
		gens := ring.Generations()
		if len(gens) != s.Iters {
			t.Fatalf("%s: %d generations, want %d", app, len(gens), s.Iters)
		}
		// The oldest generation: the restored attempt still has iterations to
		// step on the instance.
		st, err := checkpoint.ReadFile(gens[len(gens)-1].Path)
		if err != nil {
			t.Fatal(err)
		}
		restored, restoredProg := drive(r, own, nil, st)
		again, againProg := drive(r, own, nil, nil)
		for i, got := range []struct {
			leg  string
			out  Outcome
			prog *core.Program
		}{{"the fresh attempt", want, prog}, {"the restored attempt", restored, restoredProg}, {"the second attempt", again, againProg}} {
			if got.prog != own.Instance.prog() {
				t.Errorf("%s: %s was not built on its Problem's instance", app, got.leg)
			}
			if i > 0 {
				same(got.leg+" without a store", got.out, want)
			}
		}
		if programHash(own.Instance.prog()) != ownHash {
			t.Errorf("%s: the Problem's program changed under its attempts", app)
		}

		kept := &mapInstances{kept: map[InstanceKey]*Instance{}}
		ring = newRing(2)
		r, first := problem(kept)
		if first == nil || first.Instance == nil {
			t.Fatalf("%s: a run with a store kept no instance", app)
		}
		drive(r, first, ring, nil)
		before := programHash(first.Instance.prog())
		st, _, _, _ = ring.RecoverNewest()
		if st == nil {
			t.Fatalf("%s: no generation to restore", app)
		}
		got := make([]Outcome, 3)
		progs := make([]*core.Program, 3)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r, p := problem(kept)
				if i == 2 {
					got[i], progs[i] = drive(r, p, nil, st)
				} else {
					got[i], progs[i] = drive(r, p, nil, nil)
				}
			}()
		}
		wg.Wait()
		for i, out := range got {
			if progs[i] != first.Instance.prog() {
				t.Errorf("%s: attempt %d declared its own app", app, i)
			}
			same(fmt.Sprintf("attempt %d on the stored instance", i), out, want)
		}
		if kept.loads != 4 || kept.stores != 1 {
			t.Errorf("%s: %d loads and %d stores over four Problems of one key, want 4 and 1", app, kept.loads, kept.stores)
		}
		if programHash(first.Instance.prog()) != before {
			t.Errorf("%s: the shared program changed under its attempts", app)
		}
	}
}

// TestSeqLeavesTheInstanceUntouched: the sequential reference writes the dats
// it runs on, so it never runs on a stored instance. VerifyAgainstSeq on an
// attempt built from one declares its own app, a seq run with a store neither
// looks one up nor keeps one, and the stored instance hashes as declared
// after both.
func TestSeqLeavesTheInstanceUntouched(t *testing.T) {
	defer leakcheck.Check(t)()
	for _, app := range []string{"mgcfd", "hydra"} {
		s := small(app)
		s.Safe = app == "hydra" // so VerifyAgainstSeq must match to rounding
		kept := &mapInstances{kept: map[InstanceKey]*Instance{}}
		build := func(backend string) (*Problem, *Attempt) {
			t.Helper()
			s := s
			s.Backend = backend
			r, err := s.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			r.Instances = kept
			p, err := r.NewProblem()
			if err != nil {
				t.Fatal(err)
			}
			a, err := r.BuildFrom(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Drive(nil); err != nil {
				t.Fatal(err)
			}
			return p, a
		}
		p, a := build("ca")
		in := p.Instance
		if in == nil || a.prog != in.prog() {
			t.Fatalf("%s: the attempt was not built on the stored instance", app)
		}
		before := programHash(in.prog())
		worst, tol := a.VerifyAgainstSeq()
		a.Close()
		if worst > tol {
			t.Errorf("%s: differs from the sequential reference by %g (tolerance %g)", app, worst, tol)
		}
		if programHash(in.prog()) != before {
			t.Errorf("%s: VerifyAgainstSeq wrote the stored instance", app)
		}
		p, a = build("seq")
		a.Close()
		if p.Instance != nil || a.prog == in.prog() || kept.loads != 1 || kept.stores != 1 {
			t.Errorf("%s: a seq run took or left an instance (%d loads, %d stores)", app, kept.loads, kept.stores)
		}
		if programHash(in.prog()) != before {
			t.Errorf("%s: a seq run wrote the stored instance", app)
		}
	}
}
