package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"op2ca/internal/leakcheck"
	"op2ca/internal/service"
)

// TestShutdownFinishesResponses drives the serving mode in-process through
// run: a job is running and a client is reading its /events stream when the
// context is cancelled (the signal). The shutdown must let the response
// finish — the stream ends with the job's terminal event instead of being cut
// when the process exits — before run returns 0 with every goroutine gone.
func TestShutdownFinishesResponses(t *testing.T) {
	defer leakcheck.Check(t)()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	stdout, stdoutW := io.Pipe()
	var stderr bytes.Buffer
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1", "-data-dir", t.TempDir()}, stdoutW, &stderr)
		stdoutW.Close()
	}()
	line, err := bufio.NewReader(stdout).ReadString('\n')
	base, ok := strings.CutPrefix(strings.TrimSpace(line), "op2ca-server: listening on ")
	if err != nil || !ok {
		t.Fatalf("first line of stdout %q, %v", line, err)
	}

	// Long enough to still be running when the context is cancelled; a
	// cancelled attempt unwinds at its next exchange, within milliseconds.
	spec := `{"tenant":"t","app":"mgcfd","mesh_nodes":6000,"ranks":2,"iters":500,"machine":"laptop"}`
	resp, err := client.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var view service.JobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	stream, err := client.Get(base + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	events := json.NewDecoder(stream.Body)
	var last service.Event
	for last.State != service.StateRunning {
		if err := events.Decode(&last); err != nil {
			t.Fatalf("stream ended before the job ran: %v (last event %+v)", err, last)
		}
	}
	cancel()
	for {
		var e service.Event
		if err := events.Decode(&e); err != nil {
			if err != io.EOF {
				t.Errorf("stream cut: %v", err)
			}
			break
		}
		last = e
	}
	if last.State != service.StateCancelled {
		t.Errorf("stream ended on %+v, want the job's terminal cancelled event", last)
	}
	if code := <-exit; code != 0 || !strings.Contains(stderr.String(), "shutting down") {
		t.Errorf("run returned %d, stderr %q", code, stderr.String())
	}
}

// TestPprofIsOptIn: /debug/pprof/ is served beside the API only under -pprof.
func TestPprofIsOptIn(t *testing.T) {
	defer leakcheck.Check(t)()
	svc, err := service.New(service.Config{Workers: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, profiling := range []bool{false, true} {
		ts := httptest.NewServer(handler(svc, profiling))
		want := map[string]int{"/healthz": http.StatusOK, "/debug/pprof/": http.StatusNotFound,
			"/debug/pprof/heap?debug=1": http.StatusNotFound}
		if profiling {
			want["/debug/pprof/"], want["/debug/pprof/heap?debug=1"] = http.StatusOK, http.StatusOK
		}
		for path, status := range want {
			resp, err := ts.Client().Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != status {
				t.Errorf("-pprof=%t: GET %s = %d, want %d", profiling, path, resp.StatusCode, status)
			}
			if profiling && path == "/debug/pprof/heap?debug=1" && !strings.Contains(string(body), "heap profile") {
				t.Errorf("GET %s does not look like a heap profile: %.80q", path, body)
			}
		}
		ts.Close()
	}
}

// TestLoadgenShedsAndDrains floods a tightly provisioned service through
// the real HTTP handler: part of the burst must be shed with 429s, and
// every admitted job must still finish.
func TestLoadgenShedsAndDrains(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1, QueueCap: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// A job that would run for minutes pins the only worker, so the flood
	// meets a full queue however fast jobs run: otherwise the worker drains the
	// loadgen's millisecond jobs between POSTs and nothing is shed. The
	// loadgen's first status poll comes after its last POST; that poll
	// cancels the pin, and the admitted jobs run.
	pin := service.JobSpec{Tenant: "pin", App: "mgcfd", MeshNodes: 6000, Ranks: 2, Iters: service.MaxIters,
		NChains: 1, Machine: "laptop"}
	v, err := svc.Submit(pin)
	if err != nil {
		t.Fatal(err)
	}
	var unpin sync.Once
	api := service.NewHandler(svc)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			unpin.Do(func() { svc.Cancel(v.ID) })
		}
		api.ServeHTTP(w, r)
	}))
	defer ts.Close()
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
	// The admitted jobs ran after the pin vacated the worker, so it is settled.
	if pv, _ := svc.Get(v.ID); pv.State != service.StateCancelled {
		t.Errorf("the pin job ended %s, want cancelled by the first poll", pv.State)
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

// TestDocumentedFlags checks every flag a `go run ./cmd/op2ca-server` line of
// README.md or DESIGN.md passes, continuation lines included, against the
// command's own -h usage, so a documented command cannot drift from the
// binary it documents.
func TestDocumentedFlags(t *testing.T) {
	var usage bytes.Buffer
	run(context.Background(), []string{"-h"}, &usage, &usage)
	for _, flag := range documentedFlags(t, "op2ca-server") {
		if !regexp.MustCompile(`(?m)^\s+-` + regexp.QuoteMeta(flag) + `(\s|$)`).Match(usage.Bytes()) {
			t.Errorf("README.md or DESIGN.md passes -%s, which op2ca-server -h does not list", flag)
		}
	}
}

// documentedFlags returns the flags passed on every `go run ./cmd/<bin>` line
// of the repository's README.md and DESIGN.md, up to a shell comment.
func documentedFlags(t *testing.T, bin string) []string {
	t.Helper()
	command := regexp.MustCompile(`go run \./cmd/` + regexp.QuoteMeta(bin) + "\\b([^`\n]*)")
	flag := regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)
	var flags []string
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		b, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range command.FindAllStringSubmatch(strings.ReplaceAll(string(b), "\\\n", " "), -1) {
			args, _, _ := strings.Cut(m[1], " #")
			for _, f := range flag.FindAllStringSubmatch(args, -1) {
				flags = append(flags, f[1])
			}
		}
	}
	if len(flags) == 0 {
		t.Fatalf("README.md and DESIGN.md pass %s no flag", bin)
	}
	return flags
}
