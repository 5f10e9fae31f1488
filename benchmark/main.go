// Command benchmark is the repository's benchmark: four seeded workloads
// measured end to end on both clocks (host time and the simulators' virtual
// time), and a traced re-run of each that fills a per-layer ledger and writes
// a span file. README.md in this directory defines every metric.
//
//	go run ./benchmark --workload mgcfd-compute --seed 1 --seconds 20 --trace 0
//	go run ./benchmark -seed 1 -out benchmark/out/results.json     (all four, both modes)
//	go run ./benchmark -compare a.json b.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// workload is one named set of inputs and the two ways of running it.
type workload struct {
	name   string
	why    string
	timed  func(in inputs, ctx *runCtx) (*endToEnd, error)
	traced func(in inputs, ctx *runCtx, rec *recorder) (*metricSet, *endToEnd, error)
}

var workloads = []workload{
	{name: "mgcfd-compute", timed: mgcfdTimed, traced: problemTraced,
		why: "8-loop MG-CFD chain, ~3000 nodes/rank: kernel dispatch is the op, exchange and set-up are not"},
	{name: "mgcfd-ranks", timed: mgcfdTimed, traced: problemTraced,
		why: "~95 nodes/rank on 64 ranks with overlap: per-rank overhead, exchange and redundant halo work peak"},
	{name: "paper-sweep", timed: sweepTimed, traced: sweepTraced,
		why: "table5, fig12, table2, fig13 through the bench harness: every op pays mesh, partition and cluster.New"},
	{name: "serve-mixed", timed: serveTimed, traced: serveTraced,
		why: "job service over HTTP, 2 workers, mixed apps with crash, drop and overlap jobs: checkpoint, supervise, placement"},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print the result line (default: all four, both modes)")
		seed    = flag.Int64("seed", 1, "seed of the input generator")
		seconds = flag.Float64("seconds", 20, "length of the timed phase")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and a span file")
		smoke   = flag.Bool("smoke", false, "toy sizes: a functional pass, not a measurement")
		out     = flag.String("out", "", "write the results, with environment and sample counts, to this JSON file")
		runs    = flag.Int("runs", 1, "with no -workload: repeat with seeds seed, seed+1, ...")
		compare = flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	ctx := &runCtx{seed: *seed, seconds: *seconds, smoke: *smoke, sz: fullSizes, setups: 5,
		outDir: filepath.Join("benchmark", "out")}
	if *smoke {
		ctx.sz, ctx.setups = smokeSizes, 2
	}
	if err := os.MkdirAll(ctx.outDir, 0o755); err != nil {
		fatal(err)
	}

	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		res, err := runOne(w, ctx, *trace != 0)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			file := resultFile{Env: environmentOf(ctx.outDir), Runs: []*result{res}}
			if err := file.write(*out); err != nil {
				fatal(err)
			}
		}
		res.print(os.Stdout)
		line, _ := json.Marshal(map[string]any{"correct": res.Correct, "attempted": res.Attempted,
			"failed": res.Failed, "metrics": res.Metrics})
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	// All four workloads, both modes, each in a process of its own so that it
	// starts from an empty heap exactly as a single run does.
	var file resultFile
	ok := true
	for i := 0; i < *runs; i++ {
		for _, w := range workloads {
			for _, traced := range []string{"0", "1"} {
				one, err := runChild(ctx, w.name, *seed+int64(i), traced)
				if err != nil {
					fatal(err)
				}
				file.Env = one.Env
				file.Runs = append(file.Runs, one.Runs...)
				ok = ok && one.Runs[0].Correct
			}
		}
	}
	if *out != "" {
		if err := file.write(*out); err != nil {
			fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runChild runs one workload in one mode in a child process, relays what it
// prints and returns the results file it wrote.
func runChild(ctx *runCtx, workload string, seed int64, traced string) (*resultFile, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(ctx.outDir, fmt.Sprintf("run-%d.json", os.Getpid()))
	defer os.Remove(tmp)
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(ctx.seconds),
		"-trace", traced, "-out", tmp, fmt.Sprintf("-smoke=%v", ctx.smoke))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	// The last line is the driver's result line; the file has it in full.
	if lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n")); len(lines) > 1 {
		os.Stdout.Write(append(bytes.Join(lines[:len(lines)-1], []byte("\n")), '\n'))
	}
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) { // 1: an output check failed
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	return readResultFile(tmp)
}

// runCtx is what the command line gives a workload.
type runCtx struct {
	seed    int64
	seconds float64
	smoke   bool
	outDir  string
	sz      sizes
	setups  int // cold set-ups per run; setup_s is their median
}

// newEndToEnd starts a run's record with its host clock; rec is nil when
// tracing is off.
func (ctx *runCtx) newEndToEnd(rec *recorder) *endToEnd {
	elems := uint32(calibElems)
	if ctx.smoke {
		elems = smokeCalibElems
	}
	return &endToEnd{clock: &hostClock{sampler: sampler{cal: newCalibrator(elems)}, rec: rec}}
}

// runOne generates the workload's inputs from the seed and runs it in one
// mode. A traced run also writes its span file.
func runOne(w *workload, ctx *runCtx, traced bool) (*result, error) {
	in, err := generate(w.name, ctx.seed, ctx.sz)
	if err != nil {
		return nil, err
	}
	var res *result
	if traced {
		rec := newRecorder()
		layers, e, err := w.traced(in, ctx, rec)
		if err != nil {
			return nil, err
		}
		if err := rec.writeChromeTrace(filepath.Join(ctx.outDir, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
		res = e.result()
		res.Metrics = layers.export()
	} else {
		e, err := w.timed(in, ctx)
		if err != nil {
			return nil, err
		}
		res = e.result()
	}
	res.Workload, res.Seed, res.Seconds, res.Trace = w.name, ctx.seed, ctx.seconds, traced
	return res, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
