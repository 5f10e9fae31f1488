package service

import (
	"encoding/json"
	"testing"
)

// TestJobSpecWireFormat pins the wire format across the move of the run
// grammar into internal/runspec: the JSON of a spec as a client writes it,
// and of the normalised echo Validate puts into views and results, are the
// strings the service produced before the move.
func TestJobSpecWireFormat(t *testing.T) {
	for _, tc := range []struct {
		spec       JobSpec
		wire, echo string
	}{
		{JobSpec{Tenant: "acme", App: "hydra", MeshNodes: 900, Ranks: 3, Backend: "op2", Overlap: true,
			Iters: 2, Machine: "cirrus", Partitioner: "rcb", Chains: "chain gradl maxhe=3\n",
			Faults: "drop=0.01,crash=rank1@9,seed=4", Supervise: "budget=2,watchdog=50", CheckpointEvery: 2},
			`{"tenant":"acme","app":"hydra","mesh_nodes":900,"ranks":3,"backend":"op2","overlap":true,"iters":2,"machine":"cirrus","partitioner":"rcb","chains":"chain gradl maxhe=3\n","faults":"drop=0.01,crash=rank1@9,seed=4","supervise":"budget=2,watchdog=50","checkpoint_every":2}`,
			`{"tenant":"acme","app":"hydra","mesh_nodes":900,"ranks":3,"backend":"op2","overlap":true,"iters":2,"machine":"cirrus","partitioner":"rcb","chains":"chain gradl maxhe=3\n","faults":"drop=0.01,crash=rank1@9,seed=4","supervise":"on,budget=2,watchdog=50","checkpoint_every":2}`},
		{JobSpec{Tenant: "acme", App: "mgcfd", Levels: 3, NChains: 5},
			`{"tenant":"acme","app":"mgcfd","levels":3,"nchains":5}`,
			`{"tenant":"acme","app":"mgcfd","mesh_nodes":2000,"levels":3,"nchains":5,"ranks":4,"backend":"ca","iters":5,"machine":"archer2","partitioner":"kway","supervise":"on","checkpoint_every":1}`},
		{JobSpec{Tenant: "t", App: "hydra"},
			`{"tenant":"t","app":"hydra"}`,
			`{"tenant":"t","app":"hydra","mesh_nodes":2000,"ranks":4,"backend":"ca","iters":5,"machine":"archer2","partitioner":"rib","supervise":"on","checkpoint_every":1}`},
	} {
		if got, _ := json.Marshal(tc.spec); string(got) != tc.wire {
			t.Errorf("wire form\n got %s\nwant %s", got, tc.wire)
		}
		w, err := tc.spec.Validate()
		if err != nil {
			t.Errorf("%s: %v", tc.wire, err)
			continue
		}
		if got, _ := json.Marshal(w.spec); string(got) != tc.echo {
			t.Errorf("normalised echo\n got %s\nwant %s", got, tc.echo)
		}
	}
}
