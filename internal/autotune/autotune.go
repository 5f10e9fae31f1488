// Package autotune closes the loop between the paper's analytic model
// (Section 3.2, Equations (1)-(4)) and the execution back-end: it
// calibrates the model's free parameters from short measured probe
// executions, enumerates the candidate execution policies for a loop-chain
// (standard OP2, communication-avoiding at every feasible halo depth,
// grouped or per-dat messages), scores each with TOp2Chain/TCAChain, and
// emits a concrete decision. All candidates are policies the equivalence
// tests already prove bit-identical, so the tuner is pure
// performance/robustness surface: it can never change results, only
// virtual time.
//
// The package is deliberately free of cluster dependencies — it consumes
// model.LoopParams/model.ChainParams the back-end derives from its halo
// layouts — so it can be unit-tested against hand-built workloads.
package autotune

import (
	"fmt"
	"math"
	"slices"

	"op2ca/internal/model"
)

// Policy is one executable configuration for a chain.
type Policy struct {
	// CA selects the communication-avoiding chain execution; false is the
	// standard per-loop OP2 baseline.
	CA bool `json:"ca"`
	// Depth is the deepest halo shell any loop executes under this policy
	// (display only; HE carries the per-loop values).
	Depth int `json:"depth,omitempty"`
	// HE is the per-loop halo-extension override slice handed to the
	// inspector; nil means Algorithm 3's own choice.
	HE []int `json:"he,omitempty"`
	// Grouped selects one aggregated message per neighbour (Equation (4));
	// false sends one message per dat and shell.
	Grouped bool `json:"grouped,omitempty"`
	// Overlap selects the pipelined exchange (post/complete delivery
	// overlapping core compute); false is bulk-synchronous. Only
	// meaningful with CA — the per-loop baseline always delivers bulk.
	Overlap bool `json:"overlap,omitempty"`
}

// Key renders the policy as a short stable identifier: "op2",
// "ca:he=2:grouped", "ca:he=3:ungrouped", "ca:he=2:grouped:ov".
func (p Policy) Key() string {
	if !p.CA {
		return "op2"
	}
	g := "grouped"
	if !p.Grouped {
		g = "ungrouped"
	}
	if p.Overlap {
		g += ":ov"
	}
	return fmt.Sprintf("ca:he=%d:%s", p.Depth, g)
}

// Equal reports whether two policies select the same execution.
func (p Policy) Equal(q Policy) bool {
	return p.CA == q.CA && p.Depth == q.Depth && p.Grouped == q.Grouped &&
		p.Overlap == q.Overlap && slices.Equal(p.HE, q.HE)
}

// CACandidate is one communication-avoiding policy with the Equation (3)
// parameters the back-end derived for it from its halo layouts.
type CACandidate struct {
	Policy Policy
	Params model.ChainParams
	// PackBytes is the largest grouped payload one rank must unpack
	// (feeds Equation (3)'s c term); zero for ungrouped candidates.
	PackBytes float64
}

// ChainInputs is everything Score needs for one chain.
type ChainInputs struct {
	Chain string
	// Op2 holds Equation (1) parameters for each loop execution of one
	// window under the standard back-end.
	Op2 []model.LoopParams
	// CA holds the feasible communication-avoiding candidates; empty when
	// the chain cannot run CA (infeasible analysis, depth or length
	// limits) — Score then picks OP2 and the caller records why in Reason.
	CA []CACandidate
}

// ScoredCandidate is one policy with its model prediction, as recorded in
// decisions (and op2ca-bench JSON).
type ScoredCandidate struct {
	Policy    string  `json:"policy"`
	Predicted float64 `json:"predicted_seconds"`
}

// Decision is the tuner's verdict for one chain.
type Decision struct {
	Chain string `json:"chain"`
	// Candidates lists every scored policy, OP2 first then CA candidates
	// in enumeration order (depth ascending, grouped before ungrouped).
	Candidates []ScoredCandidate `json:"candidates"`
	// Chosen is the winning policy's Key(); ChosenPolicy the executable form.
	Chosen       string `json:"chosen"`
	ChosenPolicy Policy `json:"chosen_policy"`
	// Predicted is the chosen policy's per-window model time; PredictedOp2
	// the baseline's, so the expected gain is grep-able.
	Predicted    float64 `json:"predicted_seconds"`
	PredictedOp2 float64 `json:"predicted_op2_seconds"`
	// Measured is the most recent decided window's measured virtual time;
	// Windows counts decided (non-probe) windows; Replans counts re-tunes.
	Measured float64 `json:"measured_seconds"`
	Windows  int     `json:"windows"`
	Replans  int     `json:"replans"`
	// Reason notes why the candidate space was restricted (e.g. the chain
	// is CA-infeasible), empty when all policies were enumerable.
	Reason string `json:"reason,omitempty"`
}

// Score validates the calibrated parameters, prices every candidate with
// Equations (1)-(3) and returns the decision. A CA candidate wins only
// when strictly cheaper than the OP2 baseline, so ties keep the simpler
// policy (and match jq's min_by, which also keeps the first of equals).
func Score(in ChainInputs, cal Calib) (Decision, error) {
	d := Decision{Chain: in.Chain}
	if err := cal.Net(0).Validate(); err != nil {
		return d, fmt.Errorf("autotune: chain %s: %w", in.Chain, err)
	}
	for i, lp := range in.Op2 {
		if err := lp.Validate(); err != nil {
			return d, fmt.Errorf("autotune: chain %s op2 loop %d: %w", in.Chain, i, err)
		}
	}
	op2 := model.TOp2Chain(in.Op2, cal.Net(0))
	d.Candidates = append(d.Candidates, ScoredCandidate{Policy: Policy{}.Key(), Predicted: op2})
	d.PredictedOp2 = op2
	d.Chosen = Policy{}.Key()
	d.ChosenPolicy = Policy{}
	d.Predicted = op2

	for i, c := range in.CA {
		net := cal.Net(c.PackBytes)
		net.Overlap = c.Policy.Overlap
		if err := net.Validate(); err != nil {
			return d, fmt.Errorf("autotune: chain %s candidate %s: %w", in.Chain, c.Policy.Key(), err)
		}
		for j, lp := range c.Params.Loops {
			if err := lp.Validate(); err != nil {
				return d, fmt.Errorf("autotune: chain %s candidate %s loop %d: %w", in.Chain, c.Policy.Key(), j, err)
			}
		}
		t := model.TCAChain(c.Params, net)
		d.Candidates = append(d.Candidates, ScoredCandidate{Policy: c.Policy.Key(), Predicted: t})
		if t < d.Predicted {
			d.Predicted = t
			d.Chosen = c.Policy.Key()
			d.ChosenPolicy = in.CA[i].Policy
		}
	}
	return d, nil
}

// replanThresholdPct is the predicted-vs-measured absolute percent error
// above which a chain is re-tuned at the next window boundary.
const replanThresholdPct = 25

// ShouldReplan reports whether a decided window's measured time diverged
// from the prediction by more than the re-plan threshold (25 %).
func ShouldReplan(predicted, measured float64) bool {
	if measured <= 0 {
		return false
	}
	return math.Abs(predicted-measured)/measured*100 > replanThresholdPct
}
