package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"op2ca/internal/leakcheck"
	"op2ca/internal/service"
)

// ---- small HTTP helpers -------------------------------------------------

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if s, ok := body.(string); ok {
		buf.WriteString(s)
	} else if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(b, out); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", url, b, err)
		}
	}
	return resp
}

func submit(t *testing.T, base string, spec service.JobSpec) service.JobView {
	t.Helper()
	resp, b := postJSON(t, base+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var v service.JobView
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

func await(t *testing.T, base, id string) service.JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var v service.JobView
		if resp := getJSON(t, base+"/v1/jobs/"+id, &v); resp.StatusCode != http.StatusOK {
			t.Fatalf("job %s: status %d", id, resp.StatusCode)
		}
		if v.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, v.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func result(t *testing.T, base, id string) *service.Result {
	t.Helper()
	var r service.Result
	if resp := getJSON(t, base+"/v1/jobs/"+id+"/result", &r); resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: status %d", id, resp.StatusCode)
	}
	return &r
}

func distinct(ws []string) int {
	seen := map[string]bool{}
	for _, w := range ws {
		seen[w] = true
	}
	return len(seen)
}

// oracle runs the spec directly (no queue, no preemption, no migration)
// and asserts the served result's determinism-bearing fields match it
// bitwise — the acceptance oracle for the whole service path.
func oracle(t *testing.T, spec service.JobSpec, got *service.Result, label string) {
	t.Helper()
	want, err := service.RunDirect(spec, "")
	if err != nil {
		t.Fatalf("%s: direct oracle: %v", label, err)
	}
	if got.Checksum != want.Checksum {
		t.Errorf("%s: checksum %s != direct %s", label, got.Checksum, want.Checksum)
	}
	if got.Residual != want.Residual {
		t.Errorf("%s: residual %g != direct %g", label, got.Residual, want.Residual)
	}
	if got.MaxClockSeconds != want.MaxClockSeconds {
		t.Errorf("%s: max clock %g != direct %g", label, got.MaxClockSeconds, want.MaxClockSeconds)
	}
}

// ---- the end-to-end acceptance test -------------------------------------

// TestServiceE2EOverHTTP drives the full acceptance scenario through the
// HTTP API: concurrent jobs from two tenants, one worker killed mid-job
// by an injected crash clause (supervised restart migrates the job), two
// preemptions resumed on different workers, all results bitwise
// identical to direct runs of the same specs.
func TestServiceE2EOverHTTP(t *testing.T) {
	// The stores' hit counts below need what one job left to survive until
	// the next job of its key looks it up: no collection evicts it meanwhile,
	// as in the stores' own tests.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	dataDir := t.TempDir()
	svc, err := service.New(service.Config{Workers: 3, QueueCap: 32, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(service.NewHandler(svc))
	defer ts.Close()

	specs := map[string]service.JobSpec{}

	// Three clean jobs saturate the three workers.
	clean1 := smallMGCFD("acme")
	clean2 := smallMGCFD("zeta")
	clean2.NChains = 3
	clean3 := smallHydra("acme")
	var ids []string
	for _, sp := range []service.JobSpec{clean1, clean2, clean3} {
		v := submit(t, ts.URL, sp)
		specs[v.ID] = sp
		ids = append(ids, v.ID)
	}

	// A worker "dies" mid-job: an injected crash clause kills rank 0 at
	// its 40th exchange. The supervisor restores from the ring and the
	// dispatcher must place the retry on a different worker.
	crash := smallMGCFD("zeta")
	crash.Faults = "crash=rank0@40,seed=1"
	crashID := submit(t, ts.URL, crash).ID
	specs[crashID] = crash
	ids = append(ids, crashID)

	// Preemption with the intent set while queued: the first attempt
	// yields at its first exchange boundary and migrates.
	pre1 := smallMGCFD("acme")
	// Long enough to still be running when the preempt lands even if a
	// worker picked it up at once and GOMAXPROCS=1 runs it before this
	// goroutine gets to POST.
	pre1.MeshNodes, pre1.Iters = 6000, 5
	pre1ID := submit(t, ts.URL, pre1).ID
	specs[pre1ID] = pre1
	ids = append(ids, pre1ID)
	if resp, b := postJSON(t, ts.URL+"/v1/jobs/"+pre1ID+"/preempt", nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("preempt: status %d: %s", resp.StatusCode, b)
	}

	// Preemption mid-run: wait until the job has committed a checkpoint
	// generation, then vacate it — the resumed attempt starts from that
	// snapshot on another worker.
	pre2 := service.JobSpec{
		Tenant: "zeta", App: "mgcfd",
		MeshNodes: 6000, Ranks: 3, Iters: 12, NChains: 2, Machine: "laptop",
	}
	pre2ID := submit(t, ts.URL, pre2).ID
	specs[pre2ID] = pre2
	ids = append(ids, pre2ID)
	genGlob := filepath.Join(dataDir, pre2ID+".ck.g*")
	for deadline := time.Now().Add(60 * time.Second); ; {
		if m, _ := filepath.Glob(genGlob); len(m) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never wrote a checkpoint generation", pre2ID)
		}
		time.Sleep(time.Millisecond)
	}
	if resp, b := postJSON(t, ts.URL+"/v1/jobs/"+pre2ID+"/preempt", nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("preempt: status %d: %s", resp.StatusCode, b)
	}

	// Every job completes, and every result matches its direct oracle.
	for _, id := range ids {
		v := await(t, ts.URL, id)
		if v.State != service.StateDone {
			t.Fatalf("job %s: state %s (error %q)", id, v.State, v.Error)
		}
		oracle(t, specs[id], result(t, ts.URL, id), id+"/"+specs[id].App)
	}

	// The crashed job migrated: supervised restart(s), >= 2 distinct
	// workers touched.
	cr := result(t, ts.URL, crashID)
	if cr.Restarts < 1 || cr.Supervise == nil || cr.Supervise.CrashRestarts < 1 {
		t.Errorf("crash job: no supervised restart recorded: %+v", cr.Supervise)
	}
	if distinct(cr.Workers) < 2 {
		t.Errorf("crash job stayed on one worker: %v", cr.Workers)
	}
	if cr.Preemptions != 0 {
		t.Errorf("crash job recorded %d preemptions", cr.Preemptions)
	}

	// Both preempted jobs vacated and resumed elsewhere, without
	// charging the supervise budget.
	for _, id := range []string{pre1ID, pre2ID} {
		r := result(t, ts.URL, id)
		if r.Preemptions < 1 || r.Attempts < 2 {
			t.Errorf("job %s: preemptions %d, attempts %d; want >= 1, >= 2", id, r.Preemptions, r.Attempts)
		}
		if distinct(r.Workers) < 2 {
			t.Errorf("preempted job %s stayed on one worker: %v", id, r.Workers)
		}
		if r.Supervise != nil && r.Supervise.Restarts > 0 {
			t.Errorf("job %s: preemption charged the supervise budget: %+v", id, r.Supervise)
		}
	}

	// The events stream replays the lifecycle and terminates.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + crashID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	evBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var states []service.State
	for _, line := range strings.Split(strings.TrimSpace(string(evBody)), "\n") {
		var e service.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("events line %q: %v", line, err)
		}
		states = append(states, e.State)
	}
	joined := fmt.Sprint(states)
	for _, want := range []service.State{service.StateQueued, service.StateRunning, service.StateDone} {
		if !strings.Contains(joined, string(want)) {
			t.Errorf("event stream missing state %s: %v", want, states)
		}
	}

	// Listing and tenant filtering.
	var all, acme []service.JobView
	getJSON(t, ts.URL+"/v1/jobs", &all)
	getJSON(t, ts.URL+"/v1/jobs?tenant=acme", &acme)
	if len(all) != len(ids) {
		t.Errorf("list: %d jobs, want %d", len(all), len(ids))
	}
	for _, v := range acme {
		if v.Tenant != "acme" {
			t.Errorf("tenant filter leaked %s/%s", v.ID, v.Tenant)
		}
	}
	if len(acme) == 0 || len(acme) >= len(all) {
		t.Errorf("tenant filter: %d of %d", len(acme), len(all))
	}

	// Metrics expose the whole story.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(mb)
	for _, want := range []string{
		fmt.Sprintf(`op2ca_service_jobs_completed_total{state="done"} %d`, len(ids)),
		`op2ca_service_jobs_submitted_total{tenant="acme"}`,
		`op2ca_service_jobs_submitted_total{tenant="zeta"}`,
		`op2ca_service_preemptions_total 2`,
		`op2ca_service_worker_virtual_seconds_total{worker="w00"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q in:\n%s", want, metrics)
		}
	}
	// The ring says what it did: every job's generations were committed, the
	// later ones over files earlier ones retired, none failed.
	metricValue := func(sample string) float64 {
		t.Helper()
		_, rest, ok := strings.Cut(metrics, "\n"+sample+" ")
		if !ok {
			t.Fatalf("metrics missing %q in:\n%s", sample, metrics)
		}
		line, _, _ := strings.Cut(rest, "\n")
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			t.Fatalf("metrics sample %s = %q", sample, line)
		}
		return v
	}
	if created, recycled := metricValue(`op2ca_service_ring_generations_total{file="created"}`),
		metricValue(`op2ca_service_ring_generations_total{file="recycled"}`); created <= 0 || recycled <= 0 {
		t.Errorf("ring generations: %v on created files, %v on recycled ones; want both > 0", created, recycled)
	}
	if n := metricValue("op2ca_service_ring_commit_errors_total"); n != 0 {
		t.Errorf("ring commit errors = %v, want 0", n)
	}
	if v := metricValue("op2ca_service_ring_join_seconds_total"); v <= 0 {
		t.Errorf("ring join seconds = %v: no job ever waited for a commit", v)
	}
	// The partition store says what it did: the crash job ran after a clean
	// job of its mesh, partitioner and rank count had settled.
	if hits, bytes := metricValue("op2ca_service_partition_store_hits_total"),
		metricValue("op2ca_service_partition_store_bytes"); hits <= 0 || bytes <= 0 {
		t.Errorf("partition store: %v hits, %v bytes; want both > 0", hits, bytes)
	}
	if n := metricValue("op2ca_service_partition_store_misses_total"); n < 2 {
		t.Errorf("partition store misses = %v, want at least one per distinct (mesh_nodes, partitioner, ranks)", n)
	}
	// The slab lender says what it did: jobs after the first ran on storage
	// an earlier backend's Close had returned, and all of it is back.
	if hits, misses := metricValue("op2ca_service_slab_hits_total"),
		metricValue("op2ca_service_slab_misses_total"); hits <= 0 || misses <= 0 {
		t.Errorf("slab lender: %v hits, %v misses; want both > 0", hits, misses)
	}
	if n := metricValue("op2ca_service_slab_lent_bytes"); n != 0 {
		t.Errorf("slab lender: %v bytes lent with every job settled, want 0", n)
	}
	// The layout store says what it did: every job looked it up once, when
	// its first attempt built its backend, the first of a key built, and a
	// later job of the key, on whichever worker's P, found what it built.
	// Restarts and preempted resumes are built on the layouts the job's
	// Problem keeps. (Exactly how many hit is counted in
	// TestLayoutStoreInvisibleInResults, with no collection.)
	if hits, misses := metricValue("op2ca_service_layout_store_hits_total"),
		metricValue("op2ca_service_layout_store_misses_total"); hits <= 0 || misses <= 0 || hits+misses != float64(len(specs)) {
		t.Errorf("layout store: %v hits, %v misses over %d jobs; want both, and one lookup a job",
			hits, misses, len(specs))
	}
	// The instance store says what it did: every job looked it up once, when
	// its first attempt built the job's Problem, the first of a key declared,
	// and a later job of the key found it. Restarts and preempted resumes are
	// built on that Problem.
	if hits, misses := metricValue("op2ca_service_instance_store_hits_total"),
		metricValue("op2ca_service_instance_store_misses_total"); hits <= 0 || misses <= 0 || hits+misses != float64(len(specs)) {
		t.Errorf("instance store: %v hits, %v misses over %d jobs; want both, and one lookup a job",
			hits, misses, len(specs))
	}
	if !strings.Contains(metrics, "op2ca_service_restarts_total 1") &&
		!strings.Contains(metrics, "op2ca_service_restarts_total 2") {
		t.Errorf("metrics missing restarts in:\n%s", metrics)
	}

	var h service.Health
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "ok" || h.Workers != 3 {
		t.Errorf("healthz = %+v", h)
	}
}

// TestAdmissionControlOverHTTP fills the queue and a tenant quota and
// asserts overload is shed with 429 + Retry-After while the in-flight
// jobs still finish.
func TestAdmissionControlOverHTTP(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1, QueueCap: 2, TenantCap: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(service.NewHandler(svc))
	defer ts.Close()

	// A job that outlasts every submission below at any scheduler width
	// occupies the only worker (it is cancelled once the sheds are seen: at
	// GOMAXPROCS=1 a job merely "long enough" finished between two POSTs)...
	busy := service.JobSpec{Tenant: "acme", App: "mgcfd", MeshNodes: 6000, Ranks: 3, Iters: service.MaxIters, Machine: "laptop"}
	busyID := submit(t, ts.URL, busy).ID
	// ...so this one queues: tenant hog takes its whole quota (1).
	hogID := submit(t, ts.URL, smallMGCFD("hog")).ID

	// Tenant quota shed (the queue itself still has room).
	resp, body := postJSON(t, ts.URL+"/v1/jobs", smallMGCFD("hog"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("tenant overload: status %d: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("tenant overload: no Retry-After header")
	}
	if !strings.Contains(string(body), "quota") {
		t.Errorf("tenant overload body: %s", body)
	}

	// A second tenant fills the queue to its cap (2)...
	otherID := submit(t, ts.URL, smallMGCFD("acme")).ID
	// ...so the next submission is shed whole-queue (fresh tenant, only
	// the queue cap applies).
	resp, body = postJSON(t, ts.URL+"/v1/jobs", smallMGCFD("late"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue overload: status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "queue full") {
		t.Errorf("queue overload body: %s", body)
	}

	// The admitted jobs are unaffected: the running one is still there to
	// cancel, and the two queued behind it finish and validate.
	if _, err := svc.Cancel(busyID); err != nil {
		t.Fatal(err)
	}
	if v := await(t, ts.URL, busyID); v.State != service.StateCancelled {
		t.Fatalf("busy job %s: state %s (error %q), want it cancelled while running", busyID, v.State, v.Error)
	}
	for _, id := range []string{hogID, otherID} {
		if v := await(t, ts.URL, id); v.State != service.StateDone {
			t.Fatalf("admitted job %s: state %s (error %q)", id, v.State, v.Error)
		}
	}
	mresp, _ := http.Get(ts.URL + "/metrics")
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`op2ca_service_jobs_rejected_total{reason="queue_full"} 1`,
		`op2ca_service_jobs_rejected_total{reason="tenant_quota"} 1`,
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestCancelAndErrorsOverHTTP covers cancellation of queued and running
// jobs and the HTTP error mapping (400/404/409).
func TestCancelAndErrorsOverHTTP(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1, QueueCap: 8, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(service.NewHandler(svc))
	defer ts.Close()

	// Long enough (over a second when left alone) to still be running when
	// the cancel below arrives, however few CPUs the requests before it get;
	// cancelled, it ends at its next exchange.
	running := service.JobSpec{Tenant: "acme", App: "mgcfd", MeshNodes: 6000, Ranks: 3, Iters: 100, Machine: "laptop"}
	runningID := submit(t, ts.URL, running).ID
	queuedID := submit(t, ts.URL, smallMGCFD("acme")).ID

	// Result of an unfinished job: 409.
	if resp := getJSON(t, ts.URL+"/v1/jobs/"+runningID+"/result", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("result while running: status %d", resp.StatusCode)
	}

	// Cancel the queued job: settles immediately.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queuedID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var v service.JobView
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	json.Unmarshal(b, &v)
	if resp.StatusCode != http.StatusAccepted || v.State != service.StateCancelled {
		t.Errorf("cancel queued: status %d, state %s", resp.StatusCode, v.State)
	}

	// Cancel the running job: observed at the next exchange boundary.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+runningID, nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := await(t, ts.URL, runningID); got.State != service.StateCancelled {
		t.Errorf("cancel running: state %s", got.State)
	}
	if resp := getJSON(t, ts.URL+"/v1/jobs/"+runningID+"/result", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("result of cancelled job: status %d", resp.StatusCode)
	}

	// Error mapping.
	if resp := getJSON(t, ts.URL+"/v1/jobs/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", resp.StatusCode)
	}
	for _, bad := range []string{
		`{"tenant":"acme","app":"mgcfd","bogus":1}`, // unknown field
		`{"tenant":"acme","app":"nekbone"}`,         // unknown app
		`{"tenant":"acme","app":"mgcfd","faults":"drop=2"}`,
		`not json`,
	} {
		if resp, _ := postJSON(t, ts.URL+"/v1/jobs", bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad spec %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestMoreRanksThanNodesOverHTTP: a spec asking for more ranks than its mesh
// has nodes once killed the server (the partitioner's argument panic on a
// worker goroutine). The admissible-looking case is refused with 400; the
// case only the generator's rounding reveals (62 requested nodes make a
// 60-node mesh) fails its job with the message, and the service carries on.
func TestMoreRanksThanNodesOverHTTP(t *testing.T) {
	defer leakcheck.Check(t)()
	defer http.DefaultClient.CloseIdleConnections()
	svc, err := service.New(service.Config{Workers: 1, QueueCap: 4, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(service.NewHandler(svc))
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"app":"mgcfd","mesh_nodes":60,"ranks":64,"iters":1,"tenant":"t"}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "ranks 64 exceed mesh_nodes 60") {
		t.Errorf("64 ranks on 60 nodes: status %d, body %s; want 400 naming both", resp.StatusCode, body)
	}
	for _, app := range []string{"mgcfd", "hydra"} {
		id := submit(t, ts.URL, service.JobSpec{Tenant: "t", App: app, MeshNodes: 62, Ranks: 62, Iters: 1}).ID
		if v := await(t, ts.URL, id); v.State != service.StateFailed || !strings.Contains(v.Error, "ranks 62 outside [1, 60]") {
			t.Errorf("%s, 62 ranks on a mesh rounded to 60 nodes: state %s, error %q; want failed naming both", app, v.State, v.Error)
		}
	}
	var h service.Health
	if resp := getJSON(t, ts.URL+"/healthz", &h); resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Errorf("healthz after the failed jobs: status %d, %+v", resp.StatusCode, h)
	}
	if v := await(t, ts.URL, submit(t, ts.URL, smallMGCFD("t")).ID); v.State != service.StateDone {
		t.Errorf("job after the failed ones: state %s (%s)", v.State, v.Error)
	}
}
