// Package bench regenerates every table and figure of the paper's
// evaluation (Section 4): Table 2 and Figures 10-11 for MG-CFD's synthetic
// loop-chains, Tables 3-5 and Figures 12-13 for the Hydra-proxy chains, on
// the ARCHER2 (CPU) and Cirrus (GPU) machine models.
//
// # Scaling
//
// The paper runs 8M/24M-node NASA Rotor 37 meshes on up to 16k cores; this
// reproduction emulates strong scaling at laptop scale: each "8M"/"24M"
// experiment uses a synthetic rotor mesh of Config.Nodes8M/Nodes24M nodes,
// and a paper point of N cluster nodes maps to round(N * RankScale *
// machine ranks-per-node) simulated ranks (at least 2). Per-rank partition
// sizes, neighbour counts and message sizes therefore follow the paper's
// strong-scaling trajectory at a reduced absolute scale; reported times are
// virtual (netsim clocks under the machine model). EXPERIMENTS.md records
// paper-vs-measured shapes.
package bench

import (
	"fmt"
	"math"
	"strings"

	"op2ca/internal/checkpoint"
	"op2ca/internal/cluster"
	"op2ca/internal/faults"
	"op2ca/internal/machine"
	"op2ca/internal/obs"
	"op2ca/internal/runspec"
	"op2ca/internal/supervise"
)

// Config scales the experiments.
type Config struct {
	// Nodes8M and Nodes24M are the synthetic stand-ins for the paper's
	// 8M- and 24M-node meshes (the 1:3 ratio should be kept).
	Nodes8M  int
	Nodes24M int
	// RankScale converts paper cluster nodes to simulated ranks:
	// ranks = max(2, round(N * RankScale * ranksPerNode)).
	RankScale float64
	// Iters is the number of main-loop iterations measured per point.
	Iters int
	// Parallel executes simulated ranks on multiple host threads.
	Parallel bool
	// Tracer, when non-nil, records virtual-time spans of every backend
	// the experiments construct; each backend opens its own trace epoch
	// (pid in the Chrome export), keeping timelines separate.
	Tracer *obs.Tracer
	// Observe, when non-nil, is called after each measured backend run
	// with a label identifying the configuration — the hook behind
	// op2ca-bench's -model-check and -metrics flags.
	Observe func(label string, b *cluster.Backend)
	// Faults, when non-nil, injects the deterministic fault plan into
	// every backend the experiments construct (the -faults flag). Results
	// stay bit-identical to the fault-free run; virtual times include
	// retransmission and degradation costs.
	Faults *faults.Plan
	// AutoTune lets the model-driven autotuner pick each chain's execution
	// policy in the CA runs of the paper experiments (the -autotune flag).
	// Results stay bit-identical to the static configuration. Ablations are
	// deliberately excluded: they study pinned static knobs (fixed depth,
	// grouping, partitioner, GPUDirect) that the tuner would override.
	AutoTune bool
	// Overlap runs the CA back-ends of the paper experiments with
	// overlapped chain exchanges (the -overlap flag). Results stay
	// bit-identical; virtual times drop by the pipelined latency and
	// handshake savings. The dedicated overlap experiment measures both
	// modes regardless of this knob.
	Overlap bool
	// Ring, when non-nil, snapshots each measured run's backend through the
	// verified checkpoint ring at the ring's cadence, counted in measured
	// iterations (the -checkpoint flag); every generation is written
	// atomically and read back, so a crash always finds the most recent
	// complete snapshot.
	Ring *checkpoint.Ring
	// Resume, when non-nil, is a snapshot a previous (crashed) invocation
	// wrote: every run whose restore accepts it continues mid-measurement
	// (see open), all other runs re-execute deterministically, and the
	// invocation's final checksums equal an uninterrupted run's.
	Resume *Resume
	// Sup, when non-nil, is the invocation's supervisor: it adopts every
	// backend the checkpointable experiments construct or restore, arming
	// the fault plan's crash clauses that have not fired yet and the
	// watchdog deadline (see internal/supervise). Without one, fresh
	// backends are fully armed and restored backends disarmed.
	Sup *supervise.Supervisor

	// slabs lends every backend of the experiment its flat storage and takes
	// it back on Close, and every Problem its halo layouts and exchange
	// schedules, which come back when the Problem is Released
	// (runspec.Run.Slabs). Experiments sets its registry's one, so a point's
	// CA backend borrows what its OP2 twin returned, and later points and
	// experiments what earlier ones did; the lender is garbage once the
	// registry is.
	slabs cluster.SlabLender
	// instances keeps the apps the experiment's points declared
	// (runspec.Run.Instances). Experiments sets its registry's
	// runspec.GCStore beside the lender, so every point on one mesh, in any
	// experiment of the registry, shares one declared app.
	instances runspec.Instances
}

// resolve turns the description of one backend of an experiment into a
// run on mach — named in the description by its preset, handed over as
// built, since the launch-overhead ablation modifies one — under the
// invocation's host-side knobs and fault plan, borrowing from the
// registry's lender and declaring through its instance store. The
// description is the harness's own, so a Resolve error is a bug.
func (c Config) resolve(s runspec.Spec, mach *machine.Machine) *runspec.Run {
	s.Machine = strings.ToLower(mach.Name)
	r, err := s.Resolve()
	if err != nil {
		panic("bench: " + err.Error())
	}
	r.Machine, r.Parallel, r.Tracer, r.Plan = mach, c.Parallel, c.Tracer, c.Faults
	r.Slabs, r.Instances = c.slabs, c.instances
	return r
}

// problem builds what the backends of one experiment point share: mesh,
// hierarchy, partition, the declared app — the registry's, when an earlier
// point declared it — and the halo layouts, borrowed from the registry's
// lender: whoever builds a Problem Releases it once its backends are closed.
// The description is the harness's own but its sizes are the invocation's:
// scale flags under which a point has more ranks than its mesh has nodes
// raise the *runspec.SizeError itself, for the command to report as the
// usage error it is.
func problem(r *runspec.Run) *runspec.Problem {
	p, err := r.NewProblem()
	if err != nil {
		panic(err)
	}
	return p
}

// point measures one paper point: body runs on the OP2 and then the CA
// backend that spec — the point's description but for the backend — gives on
// mach, after one warm-up iteration. The autotuner and the overlapped
// executor apply to CA only. Both backends are built over one Problem, so
// they share the point's mesh, partition, one read-only declared app and one
// set of halo layouts with their exchange schedules: rebuilding mesh and
// partition per backend would cost paper-sweep about 5% of its throughput and
// most of its allocation bound. body closes what it builds; once both
// backends are closed the point gives the layouts' storage back to the
// registry's lender, for the next point to borrow.
func (c Config) point(spec runspec.Spec, mach *machine.Machine, body func(r *runspec.Run, p *runspec.Problem)) {
	var p *runspec.Problem
	for _, backend := range []string{"op2", "ca"} {
		spec.Backend, spec.Iters = backend, c.Iters+1
		spec.AutoTune, spec.Overlap = c.AutoTune && backend == "ca", c.Overlap && backend == "ca"
		r := c.resolve(spec, mach)
		if p == nil {
			p = problem(r)
		}
		body(r, p)
	}
	p.Release()
}

// observe invokes the Observe hook if one is configured.
func (c Config) observe(label string, b *cluster.Backend) {
	if c.Observe != nil {
		c.Observe(label, b)
	}
}

// Default returns a configuration sized for interactive runs (a few
// minutes per experiment on a laptop). RankScale is calibrated so the
// paper's 64-node ARCHER2 points land in the same per-rank partition-size
// regime (hundreds of mesh nodes per rank) where the published crossovers
// occur.
func Default() Config {
	return Config{Nodes8M: 60000, Nodes24M: 180000, RankScale: 0.012, Iters: 3, Parallel: true}
}

// Quick returns a configuration sized for go test / CI.
func Quick() Config {
	return Config{Nodes8M: 16000, Nodes24M: 48000, RankScale: 0.006, Iters: 2, Parallel: true}
}

// ranksFor maps a paper node count to a simulated rank count.
func (c Config) ranksFor(paperNodes int, ranksPerNode int) int {
	r := int(math.Round(float64(paperNodes) * c.RankScale * float64(ranksPerNode)))
	if r < 2 {
		r = 2
	}
	return r
}

// ranksOn is the simulated rank count of a paper point on mach.
func (c Config) ranksOn(paperNodes int, mach *machine.Machine) int {
	if mach.GPU != nil {
		return gpuRanksFor(paperNodes)
	}
	return c.ranksFor(paperNodes, mach.RanksPerNode)
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes carries scaling caveats and measurement definitions.
	Notes []string
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as machine-readable CSV (header row first; notes
// omitted). Cells containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = "\"" + strings.ReplaceAll(cell, "\"", "\"\"") + "\""
			}
			b.WriteString(cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f6(v float64) string { return fmt.Sprintf("%.6f", v) }
func gain(op2, ca float64) float64 {
	if op2 <= 0 {
		return 0
	}
	return (op2 - ca) / op2 * 100
}

// archer and cirrus are internal shorthands for the machine presets.
func archer() *machine.Machine { return machine.ARCHER2() }
func cirrus() *machine.Machine { return machine.Cirrus() }
