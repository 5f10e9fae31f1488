package cluster

import (
	"fmt"
	"sort"
	"strings"

	"op2ca/internal/autotune"
	"op2ca/internal/obs"
	"op2ca/internal/obs/analysis"
)

// LoopStats aggregates the executions of one named loop outside chains.
type LoopStats struct {
	Name string
	// Executions counts op_par_loop calls.
	Executions int
	// Msgs and Bytes total the halo messages sent across all ranks.
	Msgs  int64
	Bytes int64
	// DatsExchanged totals, over executions, the number of dats whose
	// halos were exchanged (the d_l term).
	DatsExchanged int64
	// MaxNeighbours is the largest per-rank neighbour count seen (p).
	MaxNeighbours int
	// MaxMsgBytes is the largest single message (m).
	MaxMsgBytes int64
	// CoreIters and HaloIters split iterations into those overlapped with
	// communication and those executed after the wait, totalled over
	// ranks and executions.
	CoreIters int64
	HaloIters int64
	// Time is the virtual wall time attributed to this loop (max over
	// ranks, summed over executions).
	Time float64
	// Predicted accumulates, per execution, the Equation (1) model
	// prediction evaluated with that execution's measured parameters.
	Predicted float64
}

// ChainStats aggregates the executions of one named loop-chain.
type ChainStats struct {
	Name string
	// NLoop is the loop count of the most recent execution; NLoopMin and
	// NLoopMax track the spread across executions (auto-detected lazy
	// chains vary in length from flush to flush).
	NLoop    int
	NLoopMin int
	NLoopMax int
	// Executions counts ChainEnd calls; CAExecutions counts those that
	// ran with Algorithm 2 rather than falling back to per-loop code.
	Executions   int
	CAExecutions int
	// HE records the halo extension of each loop from the last CA run.
	HE []int
	// Msgs and Bytes total the grouped messages.
	Msgs  int64
	Bytes int64
	// DatsExchanged totals dats included in the grouped message.
	DatsExchanged int64
	// MaxNeighbours is the largest per-rank neighbour count (p).
	MaxNeighbours int
	// MaxMsgBytes is the largest single grouped message (the m^r term).
	MaxMsgBytes int64
	// MaxRankBytes is the largest per-rank total grouped send volume
	// (the p*m^r proxy of Table 2).
	MaxRankBytes int64
	// CoreIters and HaloIters are as in LoopStats, totalled over loops.
	CoreIters int64
	HaloIters int64
	// Time is the virtual wall time of the chain (max over ranks, summed
	// over executions).
	Time float64
	// Predicted accumulates, per CA execution, the Equation (3) model
	// prediction (or the Equation (2) sum of per-loop predictions when the
	// chain fell back to per-loop execution).
	Predicted float64
	// FallbackUngrouped and FallbackPerLoop count degradations under fault
	// injection: grouped exchanges that exhausted their retransmission
	// budget and retried with per-dat messages, and chain windows that
	// degraded all the way to per-loop OP2 execution.
	FallbackUngrouped int
	FallbackPerLoop   int
}

// FaultStats aggregates fault-injection and recovery events across a run.
// All zeros on a fault-free run. The JSON names are the wire format of the
// "faults" object in op2ca-bench -json snapshots and served job results.
type FaultStats struct {
	// Drops, Corrupts and Delays count injected fault events per
	// transmission attempt.
	Drops    int64 `json:"drops"`
	Corrupts int64 `json:"corrupts"`
	Delays   int64 `json:"delays"`
	// Retries counts retransmissions; Giveups counts messages that
	// exhausted their retransmission budget.
	Retries int64 `json:"retries"`
	Giveups int64 `json:"giveups"`
	// FallbackUngrouped and FallbackPerLoop total the chain degradations
	// (see ChainStats).
	FallbackUngrouped int64 `json:"fallback_ungrouped"`
	FallbackPerLoop   int64 `json:"fallback_perloop"`
}

// Add accumulates o's counters into s, for aggregation across backends.
func (s *FaultStats) Add(o FaultStats) {
	s.Drops += o.Drops
	s.Corrupts += o.Corrupts
	s.Delays += o.Delays
	s.Retries += o.Retries
	s.Giveups += o.Giveups
	s.FallbackUngrouped += o.FallbackUngrouped
	s.FallbackPerLoop += o.FallbackPerLoop
}

// String renders the counters as every report prints them.
func (s FaultStats) String() string {
	return fmt.Sprintf("drops %d corrupts %d delays %d retries %d giveups %d fallback_ungrouped %d fallback_perloop %d",
		s.Drops, s.Corrupts, s.Delays, s.Retries, s.Giveups, s.FallbackUngrouped, s.FallbackPerLoop)
}

// CkptStats counts checkpoint/restart activity. Checkpoint writes and
// restores are host I/O off the virtual-time critical path, so these
// counters never influence simulated clocks or results.
type CkptStats struct {
	// Checkpoints counts snapshots written; CheckpointBytes totals their
	// encoded size.
	Checkpoints     int64
	CheckpointBytes int64
	// Restores counts backends rebuilt from a snapshot (at most 1 per
	// backend: the restored backend starts with the snapshot's count plus
	// its own restore).
	Restores int64
}

// SuperviseStats summarises a supervised run's recovery activity: restart
// counts by failure class, checkpoint-ring recovery work and the virtual
// time charged to restart backoff. Like CkptStats these counters live off
// the virtual-time critical path — a supervised run's simulated clocks and
// results are bitwise identical to the uninterrupted run's. The JSON names
// are the wire format of the "supervise" object in op2ca-bench -json
// snapshots and served job results.
type SuperviseStats struct {
	// Enabled reports whether the run executed under a supervisor. Off the
	// wire: a -json document or job result carries the ledger exactly when
	// it is set, and a checkpoint never holds a set one — the supervisor
	// publishes the ledger after the run.
	Enabled bool `json:"-"`
	// Attempts counts run attempts (1 on an undisturbed run); Restarts
	// counts supervised recoveries, split by failure class below.
	Attempts int `json:"attempts"`
	Restarts int `json:"restarts"`
	// CrashRestarts, ExchangeRestarts and WatchdogTrips split Restarts by
	// the failure that triggered them: injected crash faults, exchange
	// integrity violations after retry give-up, and no-progress watchdog
	// trips.
	CrashRestarts    int `json:"crash_restarts"`
	ExchangeRestarts int `json:"exchange_restarts"`
	WatchdogTrips    int `json:"watchdog_trips"`
	// GenerationsTried and Quarantined count checkpoint-ring recovery work:
	// snapshot generations examined and generations quarantined as corrupt.
	GenerationsTried int `json:"generations_tried"`
	Quarantined      int `json:"quarantined"`
	// ColdStarts counts attempts begun without a usable snapshot (the
	// first attempt of a fresh run included).
	ColdStarts int `json:"cold_starts"`
	// BackoffVirtual is the total virtual time charged to restart backoff.
	// It is a separate ledger, never added to rank clocks — restart policy
	// must not perturb the simulated timeline.
	BackoffVirtual float64 `json:"backoff_virtual_seconds"`
}

// AutoTuneStats records the model-driven autotuner's activity: the most
// recent calibration, the latest decision per chain, and the chains the
// invariance guard excluded from tuning (with why).
type AutoTuneStats struct {
	// Enabled reports whether any chain engaged the tuner this run.
	Enabled bool
	// Calib is the most recent fitted parameter set.
	Calib autotune.Calib
	// Decisions maps chain name to its latest decision (updated in place
	// as windows and re-plans accumulate); Order preserves first-decision
	// order for reporting.
	Decisions map[string]*autotune.Decision
	Order     []string
	// Skipped maps chains excluded from tuning to the reason; SkipOrder
	// preserves first-seen order.
	Skipped   map[string]string
	SkipOrder []string
}

func (a *AutoTuneStats) note(d *autotune.Decision, cal autotune.Calib) {
	a.Enabled = true
	a.Calib = cal
	if _, ok := a.Decisions[d.Chain]; !ok {
		a.Order = append(a.Order, d.Chain)
	}
	a.Decisions[d.Chain] = d
}

func (a *AutoTuneStats) skip(name, reason string) {
	a.Enabled = true
	if _, ok := a.Skipped[name]; !ok {
		a.SkipOrder = append(a.SkipOrder, name)
	}
	a.Skipped[name] = reason
}

// Report renders the tuner's decisions for run logs; empty when the tuner
// never engaged.
func (a *AutoTuneStats) Report() string {
	if !a.Enabled {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "autotune: %s\n", a.Calib.String())
	for _, n := range a.Order {
		d := a.Decisions[n]
		fmt.Fprintf(&b, "autotune: chain %-16s -> %-18s predicted %.6fs (op2 %.6fs) measured %.6fs windows %d replans %d",
			n, d.Chosen, d.Predicted, d.PredictedOp2, d.Measured, d.Windows, d.Replans)
		if d.Reason != "" {
			fmt.Fprintf(&b, " (%s)", d.Reason)
		}
		b.WriteByte('\n')
		for _, c := range d.Candidates {
			fmt.Fprintf(&b, "autotune:   candidate %-18s %.6fs\n", c.Policy, c.Predicted)
		}
	}
	for _, n := range a.SkipOrder {
		fmt.Fprintf(&b, "autotune: chain %-16s not tuned: %s\n", n, a.Skipped[n])
	}
	return b.String()
}

// Stats collects instrumentation for one Backend.
type Stats struct {
	Loops  map[string]*LoopStats
	Chains map[string]*ChainStats
	Faults FaultStats
	Ckpt   CkptStats
	// Supervise is filled by the supervisor (package supervise) after the
	// run completes; the backend itself never writes it.
	Supervise SuperviseStats
	AutoTune  AutoTuneStats
	// Profile is the critical-path/communication/imbalance analysis of the
	// run's trace epoch; nil until Backend.Profile is called (requires a
	// Tracer). Not serialised into checkpoints — a restored run re-profiles
	// its own epoch.
	Profile *analysis.Profile `json:"-"`
}

func newStats() *Stats {
	return &Stats{
		Loops:  map[string]*LoopStats{},
		Chains: map[string]*ChainStats{},
		AutoTune: AutoTuneStats{
			Decisions: map[string]*autotune.Decision{},
			Skipped:   map[string]string{},
		},
	}
}

func (s *Stats) loop(name string) *LoopStats {
	ls, ok := s.Loops[name]
	if !ok {
		ls = &LoopStats{Name: name}
		s.Loops[name] = ls
	}
	return ls
}

// noteLen records the loop count of one chain execution.
func (cs *ChainStats) noteLen(n int) {
	cs.NLoop = n
	if cs.NLoopMin == 0 || n < cs.NLoopMin {
		cs.NLoopMin = n
	}
	if n > cs.NLoopMax {
		cs.NLoopMax = n
	}
}

func (s *Stats) chain(name string) *ChainStats {
	cs, ok := s.Chains[name]
	if !ok {
		cs = &ChainStats{Name: name}
		s.Chains[name] = cs
	}
	return cs
}

// String renders a compact report, loops then chains, alphabetically.
func (s *Stats) String() string {
	var b strings.Builder
	var names []string
	for n := range s.Loops {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		l := s.Loops[n]
		fmt.Fprintf(&b, "loop %-20s x%-5d msgs %-8d bytes %-12d dats %-4d nbmax %-3d msgmax %-10d core %-10d halo %-10d t %.6fs\n",
			l.Name, l.Executions, l.Msgs, l.Bytes, l.DatsExchanged, l.MaxNeighbours, l.MaxMsgBytes,
			l.CoreIters, l.HaloIters, l.Time)
	}
	names = names[:0]
	for n := range s.Chains {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := s.Chains[n]
		fmt.Fprintf(&b, "chain %-19s x%-5d (CA %d) msgs %-8d bytes %-12d dats %-4d nbmax %-3d msgmax %-10d rankmax %-10d core %-10d halo %-10d t %.6fs HE%v\n",
			c.Name, c.Executions, c.CAExecutions, c.Msgs, c.Bytes, c.DatsExchanged, c.MaxNeighbours,
			c.MaxMsgBytes, c.MaxRankBytes, c.CoreIters, c.HaloIters, c.Time, c.HE)
	}
	if f := s.Faults; f != (FaultStats{}) {
		fmt.Fprintf(&b, "faults %s\n", f)
	}
	if c := s.Ckpt; c != (CkptStats{}) {
		fmt.Fprintf(&b, "checkpoint writes %d bytes %d restores %d\n",
			c.Checkpoints, c.CheckpointBytes, c.Restores)
	}
	if sv := s.Supervise; sv.Enabled {
		fmt.Fprintf(&b, "supervise attempts %d restarts %d (crash %d exchange %d watchdog %d) generations tried %d quarantined %d cold starts %d backoff %.3fs\n",
			sv.Attempts, sv.Restarts, sv.CrashRestarts, sv.ExchangeRestarts, sv.WatchdogTrips,
			sv.GenerationsTried, sv.Quarantined, sv.ColdStarts, sv.BackoffVirtual)
	}
	b.WriteString(s.AutoTune.Report())
	b.WriteString(s.Profile.Report())
	return b.String()
}

// WriteMetrics exposes the loop and chain counters in Prometheus text
// exposition format. extra labels (e.g. a run or machine label) are appended
// to every sample, so several backends can share one MetricsWriter.
func (s *Stats) WriteMetrics(mw *obs.MetricsWriter, extra ...obs.Label) {
	mw.Declare("op2ca_loop_executions_total", "counter", "op_par_loop calls outside CA chains.")
	mw.Declare("op2ca_loop_msgs_total", "counter", "Halo messages sent by standard loops.")
	mw.Declare("op2ca_loop_bytes_total", "counter", "Halo bytes sent by standard loops.")
	mw.Declare("op2ca_loop_core_iters_total", "counter", "Iterations overlapped with communication.")
	mw.Declare("op2ca_loop_halo_iters_total", "counter", "Iterations executed after the wait.")
	mw.Declare("op2ca_loop_seconds_total", "counter", "Virtual seconds attributed to the loop.")
	mw.Declare("op2ca_loop_model_seconds_total", "counter", "Equation (1) predicted virtual seconds.")
	var names []string
	for n := range s.Loops {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		l := s.Loops[n]
		lb := append([]obs.Label{{Key: "loop", Value: n}}, extra...)
		mw.Sample("op2ca_loop_executions_total", lb, float64(l.Executions))
		mw.Sample("op2ca_loop_msgs_total", lb, float64(l.Msgs))
		mw.Sample("op2ca_loop_bytes_total", lb, float64(l.Bytes))
		mw.Sample("op2ca_loop_core_iters_total", lb, float64(l.CoreIters))
		mw.Sample("op2ca_loop_halo_iters_total", lb, float64(l.HaloIters))
		mw.Sample("op2ca_loop_seconds_total", lb, l.Time)
		mw.Sample("op2ca_loop_model_seconds_total", lb, l.Predicted)
	}
	mw.Declare("op2ca_chain_executions_total", "counter", "ChainEnd calls.")
	mw.Declare("op2ca_chain_ca_executions_total", "counter", "Chain executions that ran Algorithm 2.")
	mw.Declare("op2ca_chain_msgs_total", "counter", "Grouped messages sent by CA chains.")
	mw.Declare("op2ca_chain_bytes_total", "counter", "Grouped bytes sent by CA chains.")
	mw.Declare("op2ca_chain_core_iters_total", "counter", "Chain iterations overlapped with communication.")
	mw.Declare("op2ca_chain_halo_iters_total", "counter", "Chain iterations executed after the wait.")
	mw.Declare("op2ca_chain_max_msg_bytes", "gauge", "Largest grouped message per neighbour (m^r).")
	mw.Declare("op2ca_chain_max_neighbours", "gauge", "Largest per-rank neighbour count (p).")
	mw.Declare("op2ca_chain_seconds_total", "counter", "Virtual seconds attributed to the chain.")
	mw.Declare("op2ca_chain_model_seconds_total", "counter", "Equation (3) predicted virtual seconds.")
	names = names[:0]
	for n := range s.Chains {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := s.Chains[n]
		lb := append([]obs.Label{{Key: "chain", Value: n}}, extra...)
		mw.Sample("op2ca_chain_executions_total", lb, float64(c.Executions))
		mw.Sample("op2ca_chain_ca_executions_total", lb, float64(c.CAExecutions))
		mw.Sample("op2ca_chain_msgs_total", lb, float64(c.Msgs))
		mw.Sample("op2ca_chain_bytes_total", lb, float64(c.Bytes))
		mw.Sample("op2ca_chain_core_iters_total", lb, float64(c.CoreIters))
		mw.Sample("op2ca_chain_halo_iters_total", lb, float64(c.HaloIters))
		mw.Sample("op2ca_chain_max_msg_bytes", lb, float64(c.MaxMsgBytes))
		mw.Sample("op2ca_chain_max_neighbours", lb, float64(c.MaxNeighbours))
		mw.Sample("op2ca_chain_seconds_total", lb, c.Time)
		mw.Sample("op2ca_chain_model_seconds_total", lb, c.Predicted)
	}
	mw.Declare("op2ca_fault_drops_total", "counter", "Injected message drops (per transmission attempt).")
	mw.Declare("op2ca_fault_corrupts_total", "counter", "Injected message corruptions (per transmission attempt).")
	mw.Declare("op2ca_fault_delays_total", "counter", "Injected message delays (per transmission attempt).")
	mw.Declare("op2ca_fault_retries_total", "counter", "Message retransmissions charged in virtual time.")
	mw.Declare("op2ca_fault_giveups_total", "counter", "Messages that exhausted their retransmission budget.")
	mw.Declare("op2ca_fault_fallback_ungrouped_total", "counter", "Grouped CA exchanges degraded to per-dat messages.")
	mw.Declare("op2ca_fault_fallback_perloop_total", "counter", "Chain windows degraded to per-loop OP2 execution.")
	f := s.Faults
	mw.Sample("op2ca_fault_drops_total", extra, float64(f.Drops))
	mw.Sample("op2ca_fault_corrupts_total", extra, float64(f.Corrupts))
	mw.Sample("op2ca_fault_delays_total", extra, float64(f.Delays))
	mw.Sample("op2ca_fault_retries_total", extra, float64(f.Retries))
	mw.Sample("op2ca_fault_giveups_total", extra, float64(f.Giveups))
	mw.Sample("op2ca_fault_fallback_ungrouped_total", extra, float64(f.FallbackUngrouped))
	mw.Sample("op2ca_fault_fallback_perloop_total", extra, float64(f.FallbackPerLoop))

	mw.Declare("op2ca_checkpoint_total", "counter", "State snapshots written.")
	mw.Declare("op2ca_checkpoint_bytes_total", "counter", "Encoded bytes of state snapshots written.")
	mw.Declare("op2ca_checkpoint_restores_total", "counter", "Backends rebuilt from a state snapshot.")
	mw.Sample("op2ca_checkpoint_total", extra, float64(s.Ckpt.Checkpoints))
	mw.Sample("op2ca_checkpoint_bytes_total", extra, float64(s.Ckpt.CheckpointBytes))
	mw.Sample("op2ca_checkpoint_restores_total", extra, float64(s.Ckpt.Restores))

	if sv := s.Supervise; sv.Enabled {
		mw.Declare("op2ca_supervise_attempts_total", "counter", "Supervised run attempts (1 on an undisturbed run).")
		mw.Declare("op2ca_supervise_restarts_total", "counter", "Supervised in-process restarts, by failure class.")
		mw.Declare("op2ca_supervise_generations_tried_total", "counter", "Checkpoint-ring generations examined during recovery.")
		mw.Declare("op2ca_supervise_quarantined_total", "counter", "Checkpoint generations quarantined as corrupt.")
		mw.Declare("op2ca_supervise_cold_starts_total", "counter", "Attempts begun without a usable snapshot.")
		mw.Declare("op2ca_supervise_backoff_virtual_seconds_total", "counter", "Virtual time charged to restart backoff (separate ledger, never on rank clocks).")
		mw.Sample("op2ca_supervise_attempts_total", extra, float64(sv.Attempts))
		for _, c := range []struct {
			cause string
			v     int
		}{{"crash", sv.CrashRestarts}, {"exchange", sv.ExchangeRestarts}, {"watchdog", sv.WatchdogTrips}} {
			mw.Sample("op2ca_supervise_restarts_total",
				append([]obs.Label{{Key: "cause", Value: c.cause}}, extra...), float64(c.v))
		}
		mw.Sample("op2ca_supervise_generations_tried_total", extra, float64(sv.GenerationsTried))
		mw.Sample("op2ca_supervise_quarantined_total", extra, float64(sv.Quarantined))
		mw.Sample("op2ca_supervise_cold_starts_total", extra, float64(sv.ColdStarts))
		mw.Sample("op2ca_supervise_backoff_virtual_seconds_total", extra, sv.BackoffVirtual)
	}

	if a := &s.AutoTune; a.Enabled {
		mw.Declare("op2ca_autotune_decisions_total", "counter", "Chains the autotuner decided a policy for.")
		mw.Declare("op2ca_autotune_replans_total", "counter", "Autotuner re-plans triggered by prediction divergence.")
		mw.Declare("op2ca_autotune_windows_total", "counter", "Decided (non-probe) windows executed under tuned policies.")
		mw.Declare("op2ca_autotune_candidates", "gauge", "Policies scored for the chain's latest decision.")
		mw.Declare("op2ca_autotune_predicted_seconds", "gauge", "Chosen policy's predicted per-window time.")
		mw.Declare("op2ca_autotune_predicted_op2_seconds", "gauge", "OP2 baseline's predicted per-window time.")
		mw.Declare("op2ca_autotune_measured_seconds", "gauge", "Most recent decided window's measured time.")
		mw.Declare("op2ca_autotune_chosen_ca", "gauge", "1 when the chosen policy is communication-avoiding.")
		mw.Declare("op2ca_autotune_latency_seconds", "gauge", "Calibrated per-message latency L.")
		mw.Declare("op2ca_autotune_bandwidth_bytes_per_second", "gauge", "Calibrated per-rank bandwidth B.")
		mw.Declare("op2ca_autotune_pack_rate_bytes_per_second", "gauge", "Calibrated pack/unpack rate.")
		mw.Declare("op2ca_autotune_g_seconds", "gauge", "Calibrated per-iteration cost g_l.")
		var replans, windows int64
		names := make([]string, 0, len(a.Decisions))
		for n := range a.Decisions {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			d := a.Decisions[n]
			replans += int64(d.Replans)
			windows += int64(d.Windows)
			lb := append([]obs.Label{{Key: "chain", Value: n}}, extra...)
			mw.Sample("op2ca_autotune_candidates", lb, float64(len(d.Candidates)))
			mw.Sample("op2ca_autotune_predicted_seconds", lb, d.Predicted)
			mw.Sample("op2ca_autotune_predicted_op2_seconds", lb, d.PredictedOp2)
			mw.Sample("op2ca_autotune_measured_seconds", lb, d.Measured)
			ca := 0.0
			if d.ChosenPolicy.CA {
				ca = 1
			}
			mw.Sample("op2ca_autotune_chosen_ca", lb, ca)
		}
		mw.Sample("op2ca_autotune_decisions_total", extra, float64(len(a.Decisions)))
		mw.Sample("op2ca_autotune_replans_total", extra, float64(replans))
		mw.Sample("op2ca_autotune_windows_total", extra, float64(windows))
		mw.Sample("op2ca_autotune_latency_seconds", extra, a.Calib.L)
		mw.Sample("op2ca_autotune_bandwidth_bytes_per_second", extra, a.Calib.B)
		mw.Sample("op2ca_autotune_pack_rate_bytes_per_second", extra, a.Calib.PackRate)
		names = names[:0]
		for n := range a.Calib.G {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			lb := append([]obs.Label{{Key: "loop", Value: n}}, extra...)
			mw.Sample("op2ca_autotune_g_seconds", lb, a.Calib.G[n])
		}
	}

	if p := s.Profile; p != nil {
		mw.Declare("op2ca_critpath_seconds", "gauge", "Critical-path length through the run's span DAG (equals the virtual makespan).")
		mw.Declare("op2ca_critpath_kind_seconds", "gauge", "Critical-path time attributed to one span kind.")
		mw.Declare("op2ca_critpath_rank_seconds", "gauge", "Critical-path time spent on one rank's timeline.")
		mw.Declare("op2ca_critpath_segments", "gauge", "Number of segments on the critical path.")
		mw.Declare("op2ca_critpath_edges", "gauge", "Number of causal edges the critical path traversed.")
		mw.Declare("op2ca_imbalance_ratio", "gauge", "Compute load imbalance: max over mean per-rank compute time.")
		mw.Declare("op2ca_imbalance_compute_seconds", "gauge", "Per-rank compute time (core plus redundant).")
		mw.Declare("op2ca_comm_wait_seconds", "gauge", "Receiver-observed wait per exchange owner, split by cause.")
		mw.Declare("op2ca_comm_hidden_seconds", "gauge", "In-flight message time hidden behind the receiver's computation, per exchange owner.")
		mw.Sample("op2ca_critpath_seconds", extra, p.Path.Length)
		mw.Sample("op2ca_critpath_segments", extra, float64(len(p.Path.Segments)))
		mw.Sample("op2ca_critpath_edges", extra, float64(len(p.Path.Edges)))
		for _, k := range obs.Kinds() {
			if v, ok := p.Path.ByKind[k]; ok {
				mw.Sample("op2ca_critpath_kind_seconds",
					append([]obs.Label{{Key: "kind", Value: k.String()}}, extra...), v)
			}
		}
		for r := 0; r < p.Ranks; r++ {
			if v, ok := p.Path.ByRank[int32(r)]; ok {
				mw.Sample("op2ca_critpath_rank_seconds",
					append([]obs.Label{{Key: "rank", Value: fmt.Sprint(r)}}, extra...), v)
			}
		}
		mw.Sample("op2ca_imbalance_ratio", extra, p.Imbalance.Ratio)
		for r, v := range p.Imbalance.ComputeByRank {
			mw.Sample("op2ca_imbalance_compute_seconds",
				append([]obs.Label{{Key: "rank", Value: fmt.Sprint(r)}}, extra...), v)
		}
		for _, cc := range p.Comm {
			for _, c := range []struct {
				cause string
				v     float64
			}{{"late", cc.WaitLate}, {"nic", cc.WaitNIC}, {"retry", cc.WaitRetry}, {"transit", cc.WaitTransit}} {
				mw.Sample("op2ca_comm_wait_seconds",
					append([]obs.Label{{Key: "owner", Value: cc.Name}, {Key: "cause", Value: c.cause}}, extra...), c.v)
			}
			mw.Sample("op2ca_comm_hidden_seconds",
				append([]obs.Label{{Key: "owner", Value: cc.Name}}, extra...), cc.WaitHidden)
		}
	}
}
