package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"op2ca/internal/autotune"
	"op2ca/internal/cluster"
	"op2ca/internal/obs/analysis"
)

// Snapshot is the machine-readable document op2ca-bench -json writes: the
// effective configuration, every experiment's table, per-run dat checksums
// and (under -profile) per-run critical-path and communication summaries.
// Committed BENCH_*.json files of this shape form the repo's perf
// trajectory; CompareSnapshots diffs two of them with per-table thresholds
// (see compare.go).
type Snapshot struct {
	Nodes8M   int     `json:"nodes8m"`
	Nodes24M  int     `json:"nodes24m"`
	RankScale float64 `json:"rankscale"`
	Iters     int     `json:"iters"`
	FaultSpec string  `json:"fault_spec,omitempty"`
	// Faults sums the fault ledgers of every backend the experiments built.
	Faults    *cluster.FaultStats `json:"faults,omitempty"`
	Checksums map[string]string   `json:"checksums,omitempty"`
	AutoTune  []AutoTuneRun       `json:"autotune,omitempty"`
	Profiles  []ProfileRecord     `json:"profiles,omitempty"`
	// Supervise is a supervised invocation's recovery ledger (-supervise);
	// the results beside it are bitwise an uninterrupted run's.
	Supervise *cluster.SuperviseStats `json:"supervise,omitempty"`
	Results   []Result                `json:"results"`
}

// Result is one experiment's table plus its wall time. Wall time is the
// only nondeterministic field; comparisons ignore it.
type Result struct {
	Name    string     `json:"name"`
	Title   string     `json:"title"`
	Header  []string   `json:"header"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
	Seconds float64    `json:"seconds"`
}

// AutoTuneRun is one measured run's autotuner record: the calibrated
// machine/loop parameters and, per chain, the candidates scored, the chosen
// policy, predicted and measured times and the re-plan count. Chains the
// tuner refused to probe (policy invariance) appear under skipped.
type AutoTuneRun struct {
	Run         string               `json:"run"`
	Calibration autotune.Calib       `json:"calibration"`
	Decisions   []*autotune.Decision `json:"decisions"`
	Skipped     map[string]string    `json:"skipped,omitempty"`
}

// ProfileRecord is the committed summary of one run's profile: the
// critical-path length and its per-kind split, the makespan it must equal,
// the load-imbalance ratio and per-owner communication totals. Full
// rank×rank matrices stay in memory (analysis.ChainComm); the snapshot
// keeps the trajectory-worthy scalars.
type ProfileRecord struct {
	Run       string             `json:"run"`
	Makespan  float64            `json:"makespan_seconds"`
	CritPath  float64            `json:"critpath_seconds"`
	ByKind    map[string]float64 `json:"critpath_by_kind_seconds"`
	Imbalance float64            `json:"imbalance_ratio"`
	Comm      []CommRecord       `json:"comm,omitempty"`
}

// CommRecord is one exchange owner's communication totals with the
// wait-time attribution (see analysis.ChainComm).
type CommRecord struct {
	Owner          string  `json:"owner"`
	Msgs           int64   `json:"msgs"`
	Bytes          int64   `json:"bytes"`
	WaitSeconds    float64 `json:"wait_seconds"`
	LateSeconds    float64 `json:"late_seconds"`
	NICSeconds     float64 `json:"nic_seconds"`
	RetrySeconds   float64 `json:"retry_seconds"`
	TransitSeconds float64 `json:"transit_seconds"`
	HiddenSeconds  float64 `json:"hidden_seconds,omitempty"`
}

// NewProfileRecord flattens an analysis.Profile into its snapshot form.
func NewProfileRecord(run string, p *analysis.Profile) ProfileRecord {
	rec := ProfileRecord{
		Run:       run,
		Makespan:  p.Makespan,
		CritPath:  p.Path.Length,
		ByKind:    map[string]float64{},
		Imbalance: p.Imbalance.Ratio,
	}
	for k, v := range p.Path.ByKind {
		rec.ByKind[k.String()] = v
	}
	for _, cc := range p.Comm {
		rec.Comm = append(rec.Comm, CommRecord{
			Owner: cc.Name, Msgs: cc.Msgs, Bytes: cc.Bytes,
			WaitSeconds: cc.Wait, LateSeconds: cc.WaitLate, NICSeconds: cc.WaitNIC,
			RetrySeconds: cc.WaitRetry, TransitSeconds: cc.WaitTransit,
			HiddenSeconds: cc.WaitHidden,
		})
	}
	sort.Slice(rec.Comm, func(i, j int) bool { return rec.Comm[i].Owner < rec.Comm[j].Owner })
	return rec
}

// ReadSnapshot loads a -json results file.
func ReadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &s, nil
}

// WriteFile writes the snapshot as indented JSON (the committed format).
func (s *Snapshot) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
