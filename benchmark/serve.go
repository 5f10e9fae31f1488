package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"op2ca/internal/service"
)

// serveClients is the closed loop's width: each client holds one connection
// and one outstanding job, with no think time. Two matches the worker pool,
// so the admission queue never fills and a 429 would be a regression.
const serveClients = 2

// server is an in-process op2ca-server: the job service behind its HTTP
// handler on a loopback port, with the checkpoint rings in dir.
type server struct {
	svc *service.Service
	srv *http.Server
	url string
	dir string
}

func startServer(dir string) (*server, error) {
	svc, err := service.New(service.Config{Workers: 2, QueueCap: 8, DataDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &server{svc: svc, srv: &http.Server{Handler: service.NewHandler(svc)},
		url: "http://" + ln.Addr().String(), dir: dir}
	go s.srv.Serve(ln) // returns when stop closes the server
	return s, nil
}

func (s *server) stop() {
	s.srv.Close()
	s.svc.Close()
	os.RemoveAll(s.dir)
}

// jobRun is one served job as its client saw it.
type jobRun struct {
	index      int // position in the submitted sequence
	client     int
	spec       service.JobSpec
	start, end time.Time
	events     []service.Event
	result     *service.Result
	err        string // why the job failed, "" if it did not
	shed       bool
	// calMS is the calibration kernel's time on the client's goroutine
	// around the job: what scales the job's times (see hostClock).
	calMS float64
}

// scaled calibrates a raw time measured while the job ran.
func (j *jobRun) scaled(rawMS float64) float64 { return rawMS * calibNominalMS / j.calMS }

func (j *jobRun) latencyMS() float64 { return j.scaled(ms(j.end.Sub(j.start))) }

// eventTimes returns when the job was first queued, first started running
// and reached its terminal state.
func (j *jobRun) eventTimes() (queued, running, done time.Time) {
	for _, ev := range j.events {
		switch {
		case ev.State == service.StateQueued && queued.IsZero():
			queued = ev.Time
		case ev.State == service.StateRunning && running.IsZero():
			running = ev.Time
		case ev.State.Terminal():
			done = ev.Time
		}
	}
	return
}

// serveJob is one op: POST the spec, stream the events to the terminal
// state, GET the result.
func serveJob(c *http.Client, url string, spec service.JobSpec) *jobRun {
	j := &jobRun{spec: spec, start: time.Now()}
	defer func() { j.end = time.Now() }()
	body, _ := json.Marshal(spec)
	resp, err := c.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		j.err = err.Error()
		return j
	}
	var view service.JobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		j.shed = resp.StatusCode == http.StatusTooManyRequests
		j.err = fmt.Sprintf("submit: status %d, %v", resp.StatusCode, err)
		return j
	}
	if resp, err = c.Get(url + "/v1/jobs/" + view.ID + "/events"); err != nil {
		j.err = err.Error()
		return j
	}
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var ev service.Event
		if err := dec.Decode(&ev); err != nil {
			break
		}
		j.events = append(j.events, ev)
	}
	resp.Body.Close()
	if n := len(j.events); n == 0 || j.events[n-1].State != service.StateDone {
		j.err = fmt.Sprintf("job %s did not finish: %+v", view.ID, j.events)
		return j
	}
	if resp, err = c.Get(url + "/v1/jobs/" + view.ID + "/result"); err != nil {
		j.err = err.Error()
		return j
	}
	j.result = &service.Result{}
	if err := json.NewDecoder(resp.Body).Decode(j.result); err != nil || resp.StatusCode != http.StatusOK {
		j.err = fmt.Sprintf("result: status %d, %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	return j
}

// serveSetup is serve-mixed's set-up: service, listener, one warm job.
func serveSetup(dir string, warm service.JobSpec) (*server, error) {
	s, err := startServer(dir)
	if err != nil {
		return nil, err
	}
	if j := serveJob(&http.Client{}, s.url, warm); j.err != "" {
		s.stop()
		return nil, fmt.Errorf("warm job: %s", j.err)
	}
	return s, nil
}

// serveLoad drives the closed loop for the given time and returns every job
// in submission order. sample, when non-nil, is called once, with the loop
// paused and idle, when heapSampleOps jobs are done.
func serveLoad(s *server, cycle []service.JobSpec, seconds float64, cal *calibrator, sample func()) []*jobRun {
	var (
		next atomic.Int64
		mu   sync.Mutex
		jobs []*jobRun
		gate sync.RWMutex // held shared by a client for the length of a job
		wg   sync.WaitGroup
	)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			bracket := sampler{cal: cal}
			bracket.after(0)
			// At least one whole cycle, however short the run.
			for time.Now().Before(deadline) || int(next.Load()) < len(cycle) {
				gate.RLock()
				i := int(next.Add(1)) - 1
				j := serveJob(client, s.url, cycle[i%len(cycle)])
				j.index, j.client, j.calMS = i, c, bracket.after(ms(j.end.Sub(j.start)))
				gate.RUnlock()
				mu.Lock()
				jobs = append(jobs, j)
				due := sample != nil && len(jobs) == heapSampleOps
				mu.Unlock()
				if due {
					gate.Lock() // waits for the other client's job, holds new ones
					sample()
					gate.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	s.svc.Drain()
	byIndex := make([]*jobRun, len(jobs))
	for _, j := range jobs {
		byIndex[j.index] = j
	}
	return byIndex
}

// oracle is service.RunDirect of one job template, with its host time.
type oracle struct {
	res    *service.Result
	hostMS float64
}

// checkJobs computes the oracle of every template in the cycle and marks the
// jobs whose checksum, residual or virtual clock differ from it.
func checkJobs(jobs []*jobRun, cycle []service.JobSpec, dir string, clock *hostClock) (map[string]oracle, error) {
	oracles := map[string]oracle{}
	for _, spec := range cycle {
		key := specKey(spec)
		if _, ok := oracles[key]; ok {
			continue
		}
		// RunDirect resumes from whatever ring it finds, so each template
		// gets an empty directory of its own.
		direct := filepath.Join(dir, fmt.Sprintf("direct-%d", len(oracles)))
		if err := os.MkdirAll(direct, 0o755); err != nil {
			return nil, err
		}
		var o oracle
		var err error
		o.hostMS = clock.time("service.run_direct", func() {
			o.res, err = service.RunDirect(spec, direct)
		})
		os.RemoveAll(direct)
		if err != nil {
			return nil, fmt.Errorf("RunDirect: %w", err)
		}
		oracles[key] = o
	}
	for _, j := range jobs {
		if j.err != "" {
			continue
		}
		want := oracles[specKey(j.spec)].res
		if j.result.Checksum != want.Checksum || j.result.Residual != want.Residual ||
			j.result.MaxClockSeconds != want.MaxClockSeconds {
			j.err = fmt.Sprintf("result differs from RunDirect: checksum %s/%s clock %v/%v",
				j.result.Checksum, want.Checksum, j.result.MaxClockSeconds, want.MaxClockSeconds)
		}
	}
	return oracles, nil
}

// fillServe moves the served jobs into the end-to-end record. The closed
// loop's wall time is scaled by the mean of the calibrations the clients took
// after every job. Virtual-time metrics cover whole cycles of the job
// sequence only.
func fillServe(e *endToEnd, jobs []*jobRun, cycle int, rawWallS float64) {
	whole := len(jobs) / cycle * cycle
	cal := 0.0
	for _, j := range jobs {
		cal += j.calMS / float64(len(jobs))
	}
	e.wallS = rawWallS * calibNominalMS / cal
	for _, j := range jobs {
		e.addOp(j.latencyMS(), ms(j.end.Sub(j.start)))
		e.clock.calMS = append(e.clock.calMS, j.calMS)
		if j.err != "" {
			e.failed++
			e.notes = append(e.notes, j.err)
			continue
		}
		if j.index >= whole {
			continue
		}
		v := j.result.MaxClockSeconds
		e.virtS += v
		e.virtOps++
		if j.spec.Backend == "ca" {
			e.caVirtS += v
		} else {
			e.op2VirtS += v
		}
	}
}

func serveTimed(in inputs, ctx *runCtx) (*endToEnd, error) {
	e := ctx.newEndToEnd(nil)
	dir := filepath.Join(ctx.outDir, fmt.Sprintf("rings-%d", os.Getpid()))
	var s *server
	for i := 0; i < ctx.setups; i++ {
		if s != nil {
			s.stop()
		}
		var err error
		e.timeSetup(func() { s, err = serveSetup(dir, in.Jobs[0]) })
		if err != nil {
			return nil, err
		}
	}
	defer s.stop()

	e.sampleHeap()
	a0, start := totalAlloc(), time.Now()
	jobs := serveLoad(s, in.Jobs, ctx.seconds, e.clock.cal, e.sampleHeap)
	rawWallS := time.Since(start).Seconds()
	e.allocBytes = totalAlloc() - a0

	if _, err := checkJobs(jobs, in.Jobs, dir, e.clock); err != nil {
		return nil, err
	}
	fillServe(e, jobs, len(in.Jobs), rawWallS)
	return e, nil
}

// serveTraced runs the same closed loop for half the time, turns each job's
// client clocks and lifecycle events into spans, and fills the service,
// supervise and checkpoint rows; the rest of the ledger is taken on the
// representative job's problem.
func serveTraced(in inputs, ctx *runCtx, rec *recorder) (*metricSet, *endToEnd, error) {
	e := ctx.newEndToEnd(rec)
	dir := filepath.Join(ctx.outDir, fmt.Sprintf("rings-%d", os.Getpid()))
	s, err := serveSetup(dir, in.Jobs[0])
	if err != nil {
		return nil, nil, err
	}
	defer s.stop()
	h0, start := heapLive(), time.Now()
	jobs := serveLoad(s, in.Jobs, ctx.seconds/2, e.clock.cal, nil)
	rawWallS := time.Since(start).Seconds()
	retained := float64(heapLive()) - float64(h0)
	oracles, err := checkJobs(jobs, in.Jobs, dir, e.clock)
	if err != nil {
		return nil, nil, err
	}
	fillServe(e, jobs, len(in.Jobs), rawWallS)

	m := newMetricSet(perLayerDefs)
	var wait, run, overhead, direct, crashed []float64
	clean := map[string][]float64{} // latencies of fault-free jobs, by template
	shed, restarts := 0, 0
	template := func(s service.JobSpec) string { return fmt.Sprintf("%s/%s/%d", s.App, s.Backend, s.Ranks) }
	for i, j := range jobs {
		if j.shed {
			shed++
		}
		if j.err != "" {
			continue
		}
		queued, running, done := j.eventTimes()
		op := int64(i + 1)
		root := rec.add("service.job:"+template(j.spec), j.start, j.end, -1, op)
		rec.spans[root].Track = j.client
		rec.add("service.queue_wait", queued, running, root, op)
		rec.add("service.run", running, done, root, op)
		wait = append(wait, j.scaled(ms(running.Sub(queued))))
		run = append(run, j.scaled(ms(done.Sub(running))))
		overhead = append(overhead, j.latencyMS()-j.scaled(ms(done.Sub(queued))))
		direct = append(direct, ratio(j.scaled(ms(done.Sub(running))), oracles[specKey(j.spec)].hostMS))
		restarts += j.result.Restarts
		if j.spec.Faults == "" && !j.spec.Overlap {
			clean[template(j.spec)] = append(clean[template(j.spec)], j.latencyMS())
		}
	}
	for _, j := range jobs {
		if j.err == "" && j.result.Restarts > 0 {
			crashed = append(crashed, j.latencyMS()-median(clean[template(j.spec)]))
		}
	}
	m.set("service.queue_wait_ms_p50", median(wait))
	m.set("service.run_ms_p50", median(run))
	_, p90 := highPercentile(run, 0.9)
	m.set("service.run_ms_p90", p90)
	m.set("service.http_overhead_ms_p50", median(overhead))
	m.set("service.direct_ratio_x", median(direct))
	m.set("service.shed_frac", ratio(float64(shed), float64(len(jobs))))
	m.set("service.retained_kb_per_job", ratio(retained/1e3, float64(len(jobs))))
	m.set("supervise.restarts_per_job", ratio(float64(restarts), float64(len(jobs))))
	m.set("supervise.heal_ms", median(crashed))

	if err := ledger(in.Problem, ctx, rec, m, e); err != nil {
		return nil, nil, err
	}
	return m, e, nil
}
