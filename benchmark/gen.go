package main

import (
	"fmt"
	"math/rand"

	"op2ca/internal/mesh"
	"op2ca/internal/service"
)

// The generator is the only consumer of the seed. Everything a workload
// feeds the program beyond its fixed shape — the machine model's network
// parameters, the sweep's rank scaling, the job sequence with its tenants and
// fault placement — comes out of one rand.Rand, so the same seed gives
// byte-identical inputs.
//
// Seeds deliberately leave the amount of host work alone. The rotor generator
// quantises mesh sizes in steps of several per cent, and ten seeds drawn from
// three sizes spread every host-clock metric by the full step. What a seed
// moves instead is continuous and shows on the virtual clock: network latency
// and bandwidth within 1%, the sweep's rank scaling within 1.5%.

// inputs is everything generated for one run of one workload.
type inputs struct {
	Workload string
	Seed     int64
	// Problem is the workload's own problem (mgcfd-*) or the representative
	// one its per-layer ledger is taken on (paper-sweep, serve-mixed).
	Problem problem
	// Sweep holds the two passes of paper-sweep.
	Sweep []sweepPass `json:",omitempty"`
	// Jobs is one cycle of the serve-mixed job sequence; clients repeat it.
	Jobs []service.JobSpec `json:",omitempty"`
}

// sweepPass is one pass over the paper experiments.
type sweepPass struct {
	Nodes8M   int
	RankScale float64
	Tuned     bool // AutoTune + Overlap
}

// sizes scale every workload: full for measurement, toy for -smoke and tests.
type sizes struct {
	computeNodes, computeRanks int
	ranksNodes, ranksRanks     int
	sweepNodes                 int
	sweepScale                 float64
	jobNodes                   int
}

var (
	fullSizes = sizes{
		computeNodes: 24000, computeRanks: 8,
		ranksNodes: 6000, ranksRanks: 64,
		sweepNodes: 3000, sweepScale: 0.005,
		jobNodes: 4200,
	}
	smokeSizes = sizes{
		computeNodes: 400, computeRanks: 4,
		ranksNodes: 400, ranksRanks: 12,
		sweepNodes: 200, sweepScale: 0.0004,
		jobNodes: 200,
	}
)

// jitter returns a factor within +-frac of 1.
func jitter(rng *rand.Rand, frac float64) float64 { return 1 + frac*(2*rng.Float64()-1) }

// dimsFor returns the dimensions mesh.RotorForNodes gives an n-node rotor, so
// a problem built here is the mesh the harness and the service build from n.
func dimsFor(n int) [3]int {
	m := mesh.RotorForNodes(n)
	return [3]int{m.NI, m.NJ, m.NK}
}

// generate builds the inputs of one workload from the seed.
func generate(workload string, seed int64, sz sizes) (inputs, error) {
	// Mixing the workload name in keeps the four input sets independent
	// while each stays a function of the seed alone.
	salt := int64(0)
	for _, c := range workload {
		salt = salt*131 + int64(c)
	}
	rng := rand.New(rand.NewSource(seed*1000003 + salt))
	in := inputs{Workload: workload, Seed: seed}
	switch workload {
	case "mgcfd-compute":
		in.Problem = problem{App: "mgcfd", Dims: dimsFor(sz.computeNodes), Levels: 3, NChains: 4,
			Ranks: sz.computeRanks, Part: "kway", Epoch: 10,
			LatencyX: jitter(rng, 0.01), BandwidthX: jitter(rng, 0.01)}
	case "mgcfd-ranks":
		in.Problem = problem{App: "mgcfd", Dims: dimsFor(sz.ranksNodes), Levels: 2, NChains: 1,
			Ranks: sz.ranksRanks, Part: "kway", Overlap: true, Epoch: 10,
			LatencyX: jitter(rng, 0.01), BandwidthX: jitter(rng, 0.01)}
	case "paper-sweep":
		for _, tuned := range []bool{false, true} {
			in.Sweep = append(in.Sweep, sweepPass{
				Nodes8M:   int(float64(sz.sweepNodes) * jitter(rng, 0.01)),
				RankScale: sz.sweepScale * jitter(rng, 0.015),
				Tuned:     tuned,
			})
		}
		// The ledger's point: Hydra on the 8M-class mesh at 64 paper nodes,
		// the largest ARCHER2 point table5 and fig12 share.
		ranks := int(64*in.Sweep[0].RankScale*128 + 0.5)
		if ranks < 2 {
			ranks = 2
		}
		in.Problem = problem{App: "hydra", Dims: dimsFor(in.Sweep[0].Nodes8M), Ranks: ranks,
			Part: "rib", Epoch: 5, LatencyX: 1, BandwidthX: 1}
	case "serve-mixed":
		in.Jobs = jobCycle(rng, sz)
		// The ledger's job: the mgcfd template at 8 ranks, service defaults.
		in.Problem = problem{App: "mgcfd", Dims: dimsFor(sz.jobNodes), Levels: 2, NChains: 2,
			Ranks: 8, Part: "kway", Epoch: 5, LatencyX: 1, BandwidthX: 1}
	default:
		return in, fmt.Errorf("unknown workload %q", workload)
	}
	return in, nil
}

// jobCycle builds one cycle of 16 jobs: {mgcfd, hydra} x {op2, ca} x {4, 8
// ranks} twice over. In the second repetition two CA jobs run overlapped,
// two jobs carry a message-drop plan and one a crash clause (supervised
// restart from the ring), every variant with a clean twin of the same
// template in the cycle. One crash job in 16, not in 8: a restarted job takes
// half as long again, and a class that makes up an eighth of the jobs puts
// its lower edge exactly where op_ms_p90 reads. Which jobs, where the crash
// fires, the drop schedule, the order and the tenants are seeded.
func jobCycle(rng *rand.Rand, sz sizes) []service.JobSpec {
	var jobs []service.JobSpec
	var ca, rest []int // second-repetition jobs by backend
	for rep := 0; rep < 2; rep++ {
		for _, app := range []string{"mgcfd", "hydra"} {
			for _, backend := range []string{"op2", "ca"} {
				for _, ranks := range []int{4, 8} {
					spec := service.JobSpec{App: app, Backend: backend, MeshNodes: sz.jobNodes,
						Ranks: ranks, Iters: 5, CheckpointEvery: 1}
					if app == "mgcfd" {
						spec.NChains = 2
					}
					if rep == 1 && backend == "ca" {
						ca = append(ca, len(jobs))
					} else if rep == 1 {
						rest = append(rest, len(jobs))
					}
					jobs = append(jobs, spec)
				}
			}
		}
	}
	rng.Shuffle(len(ca), func(i, j int) { ca[i], ca[j] = ca[j], ca[i] })
	jobs[ca[0]].Overlap, jobs[ca[1]].Overlap = true, true
	rest = append(rest, ca[2:]...)
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	// Every template makes at least 53 exchanges in 5 iterations, so the
	// clause fires mid-run with ring generations to restart from.
	jobs[rest[0]].Faults = fmt.Sprintf("crash=rank0@%d", 30+rng.Intn(15))
	for _, i := range rest[1:3] {
		jobs[i].Faults = fmt.Sprintf("drop=0.02,seed=%d", 1+rng.Intn(1000))
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	tenants := []string{"alpha", "beta", "gamma"}
	for i := range jobs {
		jobs[i].Tenant = tenants[rng.Intn(len(tenants))]
	}
	return jobs
}

// specKey identifies a job template: the spec without its tenant.
func specKey(s service.JobSpec) string {
	s.Tenant = ""
	return fmt.Sprintf("%+v", s)
}
