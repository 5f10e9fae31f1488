// Command op2ca-server serves the multi-tenant job service
// (internal/service) over HTTP: clients POST mesh/chain/config job specs
// to /v1/jobs, poll status, stream lifecycle events, preempt, cancel,
// and fetch bench-snapshot-style results; /metrics exposes the service
// counters in Prometheus text format.
//
// Besides serving, two utility modes share the same job grammar:
//
//	op2ca-server -run spec.json      # execute one spec directly, print its Result
//	op2ca-server -loadgen http://... # flood a running server, print a shed/done report
//
// The -run mode is the serving path's oracle: a job submitted over HTTP
// must return the same checksum, residual and virtual clock as -run on
// the identical spec.
//
// Usage:
//
//	op2ca-server -addr 127.0.0.1:8080 -workers 4 -queue-cap 16
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"op2ca/internal/service"
)

const prog = "op2ca-server"

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, serves until ctx is done (or
// runs the one-shot mode they select), and returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address")
		workers   = fs.Int("workers", 2, "executor pool size (one simulated run per worker)")
		queueCap  = fs.Int("queue-cap", 8, "admission queue bound; beyond it jobs are shed with 429")
		tenantCap = fs.Int("tenant-cap", 0, "per-tenant share of the queue (0 = queue-cap)")
		dataDir   = fs.String("data-dir", "", "checkpoint ring directory (default: a temp dir, removed on exit)")
		keep      = fs.Int("keep", 3, "checkpoint generations retained per job")
		profiling = fs.Bool("pprof", false, "serve Go's runtime profiles under /debug/pprof/ on the listen address")
		runSpec   = fs.String("run", "", "execute one job spec (JSON file, - for stdin) directly and print its result")
		loadgen   = fs.String("loadgen", "", "flood the server at this base URL with synthetic jobs and print a report")
		jobs      = fs.Int("jobs", 32, "loadgen: jobs to submit")
		tenants   = fs.String("tenants", "acme,zeta,hog", "loadgen: comma-separated tenant names")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintf(stderr, "%s: %v\n", prog, err)
		return 1
	}

	switch {
	case *runSpec != "":
		if err := runDirect(*runSpec, stdout); err != nil {
			return fatal(err)
		}
	case *loadgen != "":
		rep, err := runLoadgen(*loadgen, *jobs, strings.Split(*tenants, ","))
		if err != nil {
			return fatal(err)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
		if rep.Failed > 0 || rep.Errors > 0 {
			return 1
		}
	default:
		cfg := service.Config{
			Workers: *workers, QueueCap: *queueCap, TenantCap: *tenantCap,
			DataDir: *dataDir, Keep: *keep,
		}
		if err := serve(ctx, *addr, cfg, *profiling, stdout, stderr); err != nil {
			return fatal(err)
		}
	}
	return 0
}

// serve runs the HTTP service until ctx is done (SIGINT/SIGTERM), then shuts
// down gracefully: stop accepting, cancel everything in flight, drain the
// worker pool, and return once every response under way has been written.
func serve(ctx context.Context, addr string, cfg service.Config, profiling bool, stdout, stderr io.Writer) error {
	svc, err := service.New(cfg)
	if err != nil {
		return err
	}
	defer svc.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: listening on http://%s\n", prog, ln.Addr())
	srv := &http.Server{Handler: handler(svc, profiling)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served: // the listener failed
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(stderr, "%s: shutting down\n", prog)
	// Serve returns the moment Shutdown closes the listener, Shutdown only
	// when every connection is idle. In between, closing the service settles
	// every job, which lets the responses under way finish: an /events
	// stream ends with its job's terminal event.
	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(context.Background()) }()
	<-served
	svc.Close()
	return <-shut
}

// handler is the service's HTTP API, with net/http/pprof's endpoints beside
// it when profiling is on (-pprof): they show the process to whoever can
// reach the listen address, so an operator asks for them.
func handler(svc *service.Service, profiling bool) http.Handler {
	api := service.NewHandler(svc)
	if !profiling {
		return api
	}
	mux := http.NewServeMux()
	mux.Handle("/", api)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// runDirect executes one spec inline and prints its Result as JSON —
// the serving path's oracle.
func runDirect(path string, w io.Writer) error {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}
	var spec service.JobSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return fmt.Errorf("decoding job spec: %w", err)
	}
	res, err := service.RunDirect(spec, "")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// loadReport is what the load generator prints: how admission control
// split the flood, and how the admitted jobs ended.
type loadReport struct {
	Submitted int `json:"submitted"`
	Accepted  int `json:"accepted"`
	Shed      int `json:"shed"` // 429 responses
	Errors    int `json:"errors"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
}

// runLoadgen bursts n small jobs at a running server, round-robin over
// the tenants, then polls every accepted job to a terminal state. The
// burst deliberately outpaces the worker pool so a tightly provisioned
// server sheds part of it with 429s — which the report records, and
// which must never leak into failures of admitted jobs.
func runLoadgen(base string, n int, tenants []string) (loadReport, error) {
	var rep loadReport
	client := &http.Client{Timeout: 30 * time.Second}
	spec := service.JobSpec{
		App: "mgcfd", MeshNodes: 500, Ranks: 2, Iters: 2, NChains: 1, Machine: "laptop",
	}
	var ids []string
	for i := 0; i < n; i++ {
		spec.Tenant = tenants[i%len(tenants)]
		body, _ := json.Marshal(spec)
		resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return rep, err
		}
		rb, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		rep.Submitted++
		switch resp.StatusCode {
		case http.StatusAccepted:
			var v service.JobView
			if err := json.Unmarshal(rb, &v); err != nil {
				return rep, err
			}
			rep.Accepted++
			ids = append(ids, v.ID)
		case http.StatusTooManyRequests:
			rep.Shed++
		default:
			rep.Errors++
		}
	}
	deadline := time.Now().Add(5 * time.Minute)
	for _, id := range ids {
		for {
			resp, err := client.Get(base + "/v1/jobs/" + id)
			if err != nil {
				return rep, err
			}
			var v service.JobView
			err = json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if err != nil {
				return rep, err
			}
			if v.State.Terminal() {
				switch v.State {
				case service.StateDone:
					rep.Done++
				case service.StateFailed:
					rep.Failed++
				default:
					rep.Cancelled++
				}
				break
			}
			if time.Now().After(deadline) {
				return rep, fmt.Errorf("job %s stuck in state %s", id, v.State)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return rep, nil
}
