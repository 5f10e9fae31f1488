package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"op2ca/internal/runspec"
)

// TestEverySpecFieldIsServed: every runspec.Spec field has a wire name, and
// is either served — Validate hands a value a client sets to the run — or on
// the unserved list, which Validate refuses naming the field's wire key. A
// new Spec field fails here until it is classified.
func TestEverySpecFieldIsServed(t *testing.T) {
	// Between them, every served field set to a value other than its service
	// default.
	served := []JobSpec{
		{Tenant: "acme", App: "mgcfd", MeshNodes: 900, Levels: 3, NChains: 2, Ranks: 3, Backend: "op2",
			Overlap: true, Iters: 2, Machine: "laptop", Partitioner: "rcb", Faults: "drop=0.01",
			Supervise: "on,budget=2", CheckpointEvery: 2},
		{Tenant: "acme", App: "hydra", Chains: "chain gradl maxhe=3\n"},
	}
	unserved := map[string]func(*JobSpec){
		"AutoTune": func(s *JobSpec) { s.AutoTune = true },
		"Safe":     func(s *JobSpec) { s.Safe = true },
	}
	typ := reflect.TypeOf(runspec.Spec{})
	for name := range unserved {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("unserved %s: no such runspec.Spec field", name)
		}
	}
	for i := range typ.NumField() {
		f := typ.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if key == "" || key == "-" {
			t.Errorf("runspec.Spec.%s: no wire name", f.Name)
			continue
		}
		if set, ok := unserved[f.Name]; ok {
			spec := JobSpec{Tenant: "acme", App: "hydra"}
			set(&spec)
			if _, err := spec.Validate(); err == nil || !strings.Contains(err.Error(), key) {
				t.Errorf("unserved %s: Validate err = %v, want one naming %q", f.Name, err, key)
			}
			continue
		}
		reached := false
		for _, spec := range served {
			want := reflect.ValueOf(spec).Field(i)
			if want.IsZero() {
				continue
			}
			reached = true
			w, err := spec.Validate()
			if err != nil {
				t.Fatalf("%+v: %v", spec, err)
			}
			if got := reflect.ValueOf(w.run.Spec).Field(i); !got.Equal(want) {
				t.Errorf("%s (%q): the run got %v, the client sent %v", f.Name, key, got, want)
			}
		}
		if !reached {
			t.Errorf("runspec.Spec.%s (%q): set by no served spec here and not on the unserved list", f.Name, key)
		}
	}
}

// FuzzValidate feeds the job service the bytes a client posts: DecodeJobSpec
// then Validate, as POST /v1/jobs and op2ca-server -run do. Whatever the
// bytes, neither panics. An accepted spec respects every admission bound, and
// its echo — the JSON views and results carry — decodes and validates again to
// a byte-identical echo, so a resubmitted echo is the same job.
func FuzzValidate(f *testing.F) {
	for _, seed := range []string{
		`{"tenant":"acme","app":"hydra","mesh_nodes":900,"ranks":3,"backend":"op2","overlap":true,"iters":2,"machine":"cirrus","partitioner":"rcb","chains":"chain gradl maxhe=3\n","faults":"drop=0.01,crash=rank1@9,seed=4","supervise":"budget=2,watchdog=50","checkpoint_every":2}`,
		`{"tenant":"acme","app":"mgcfd","levels":3,"nchains":5}`,
		`{"tenant":"t","app":"hydra"}`,
		`{"tenant":"t","app":"hydra","safe":true}`,
		`{"tenant":"t","app":"mgcfd","autotune":true}`,
		`{"tenant":"t","app":"mgcfd","bogus":1}`,
		`{"tenant":"a","app":"mgcfd"} {"app":"hydra"} garbage`,
		`{"tenant":"t","app":"hydra","backend":"seq","supervise":"budget=0"}`,
		`{"tenant":"t","app":"mgcfd","supervise":"backoff=NaN","checkpoint_every":-3}`,
	} {
		f.Add([]byte(seed))
	}
	// One step outside each admission bound.
	for _, field := range []string{
		`"tenant":"-t"`, `"mesh_nodes":59`, `"mesh_nodes":200001`, `"ranks":1`, `"ranks":65`,
		`"mesh_nodes":60,"ranks":61`, `"iters":-1`, `"iters":501`, `"checkpoint_every":-1`,
		`"checkpoint_every":501`, `"levels":-1`, `"levels":7`, `"nchains":-1`, `"nchains":65`,
		`"backend":"seq"`, `"supervise":" "`,
	} {
		f.Add([]byte(`{"tenant":"t","app":"mgcfd",` + field + `}`))
	}
	f.Fuzz(func(t *testing.T, text []byte) {
		spec, err := DecodeJobSpec(bytes.NewReader(text))
		if err != nil {
			return
		}
		w, err := spec.Validate()
		if err != nil {
			return
		}
		s := w.spec
		switch {
		case !tenantRE.MatchString(s.Tenant), s.AutoTune, s.Safe, s.Backend != "op2" && s.Backend != "ca",
			s.MeshNodes < 60, s.MeshNodes > MaxMeshNodes, s.Ranks < 2, s.Ranks > MaxRanks, s.Ranks > s.MeshNodes,
			s.Iters < 1, s.Iters > MaxIters, s.CheckpointEvery < 1, s.CheckpointEvery > MaxCkptEvery,
			s.App == "mgcfd" && (s.Levels < 1 || s.Levels > MaxLevels || s.NChains < 0 || s.NChains > MaxNChains),
			!w.run.Supervise.Enabled:
			t.Fatalf("%s: accepted outside the admission bounds as %+v", text, s)
		}
		echo, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		again, err := DecodeJobSpec(bytes.NewReader(echo))
		if err != nil {
			t.Fatalf("echo %s does not decode: %v", echo, err)
		}
		w2, err := again.Validate()
		if err != nil {
			t.Fatalf("echo %s does not validate: %v", echo, err)
		}
		if echo2, _ := json.Marshal(w2.spec); !bytes.Equal(echo, echo2) {
			t.Fatalf("echo is not a fixed point:\nfirst  %s\nsecond %s", echo, echo2)
		}
	})
}
