package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"op2ca/internal/service"
)

// TestLoadgenShedsAndDrains floods a tightly provisioned service through
// the real HTTP handler: part of the burst must be shed with 429s, and
// every admitted job must still finish.
func TestLoadgenShedsAndDrains(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1, QueueCap: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(service.NewHandler(svc))
	defer ts.Close()

	// A long job pins the only worker, so the flood meets a full queue at
	// any scheduler width: at GOMAXPROCS=1 the worker otherwise drains the
	// loadgen's millisecond jobs between POSTs and nothing is shed.
	pin := service.JobSpec{Tenant: "pin", App: "mgcfd", MeshNodes: 6000, Ranks: 2, Iters: 15, NChains: 1, Machine: "laptop"}
	if _, err := svc.Submit(pin); err != nil {
		t.Fatal(err)
	}
	rep, err := runLoadgen(ts.URL, 16, []string{"acme", "zeta"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != 16 || rep.Accepted+rep.Shed+rep.Errors != 16 {
		t.Errorf("report does not balance: %+v", rep)
	}
	if rep.Shed == 0 {
		t.Errorf("flood against 1 worker / queue 2 shed nothing: %+v", rep)
	}
	if rep.Errors != 0 || rep.Failed != 0 || rep.Cancelled != 0 {
		t.Errorf("admitted jobs must all succeed: %+v", rep)
	}
	if rep.Done != rep.Accepted || rep.Accepted == 0 {
		t.Errorf("done %d != accepted %d", rep.Done, rep.Accepted)
	}
}

// TestRunDirectMode pins the -run oracle mode: a spec file in, a Result
// with the determinism-bearing fields out.
func TestRunDirectMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	spec := `{"tenant":"ci","app":"mgcfd","mesh_nodes":500,"ranks":2,"iters":2,"machine":"laptop"}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runDirect(path, &buf); err != nil {
		t.Fatal(err)
	}
	var res service.Result
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Checksum == "" || res.MaxClockSeconds <= 0 || res.JobID != "direct" {
		t.Errorf("degenerate direct result: %+v", res)
	}
	if res.Spec.Backend != "ca" || res.Spec.Supervise != "on" {
		t.Errorf("spec defaults not echoed: %+v", res.Spec)
	}

	var buf2 bytes.Buffer
	if err := runDirect(path, &buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("-run is not deterministic across invocations")
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte(`{"tenant":"ci","app":"mgcfd","bogus":1}`), 0o644)
	if err := runDirect(bad, io.Discard); err == nil {
		t.Error("unknown field accepted")
	}
}
