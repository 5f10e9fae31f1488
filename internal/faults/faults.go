// Package faults is the deterministic fault-injection layer of the virtual
// network. A Plan, parsed from a compact spec string, decides per message
// transmission attempt whether the attempt is dropped, corrupted, delayed,
// or slowed by a straggling rank. Decisions are pure functions of the plan
// seed and the attempt's identity (exchange sequence number, message index,
// retry number), so a given plan produces the same fault schedule on every
// run regardless of host-thread scheduling — faults are charged in virtual
// time and simulations stay bit-reproducible.
//
// Spec grammar (comma-separated key=value clauses, all optional):
//
//	drop=0.01              — attempt is lost with probability 0.01
//	corrupt=0.002          — attempt arrives truncated/garbled with probability 0.002
//	delay=5x@0.01          — attempt takes 5x its transmission time with probability 0.01
//	straggler=rank3:10x    — every attempt sent by rank 3 is 10x slower (repeatable)
//	crash=rank0@120        — rank 0 dies at exchange sequence 120 (process death;
//	                         repeatable: crash=rank0@120,crash=rank2@400 schedules
//	                         an ordered multi-crash run, each clause firing once)
//	seed=42                — decision seed (default 1)
//	maxretries=6           — per-message retransmission budget (runtime default 4)
//
// Example: "drop=0.01,corrupt=0.002,delay=5x@0.01,straggler=rank3:10x,seed=42".
//
// The crash clause is categorically different from the message faults: it is
// not a probabilistic per-attempt verdict but a deterministic process death,
// raised by the runtime as a CrashError when the named rank reaches the given
// exchange sequence number. A crashed run is therefore exactly reproducible —
// the same plan kills the same run at the same virtual-time point every time —
// which is what makes checkpoint/restart testable: crash, restore from the
// last checkpoint, and the completed run must match the uninterrupted one
// bit for bit.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Attempt identifies one transmission attempt of one message. Exchange is
// the runtime's exchange sequence number, Msg the message's index within
// that exchange, and Try the 0-based retransmission count.
type Attempt struct {
	Exchange uint64
	Msg      int
	Try      int
	From, To int32
}

// Verdict is the plan's decision for one attempt. Delay and Slow are
// multipliers (>= 1) on the attempt's transmission time; Drop and Corrupt
// both mean the payload does not arrive usable and must be retransmitted.
type Verdict struct {
	Drop    bool
	Corrupt bool
	Delay   float64
	Slow    float64
}

// Failed reports whether the attempt needs a retransmission.
func (v Verdict) Failed() bool { return v.Drop || v.Corrupt }

// Plan is a parsed, immutable fault schedule. The zero value (and a nil
// plan) injects nothing.
type Plan struct {
	// Seed keys every decision; two plans differing only in seed produce
	// independent fault schedules.
	Seed uint64
	// Drop and Corrupt are per-attempt loss/corruption probabilities.
	Drop    float64
	Corrupt float64
	// DelayProb and DelayFactor: with probability DelayProb an attempt's
	// transmission time is multiplied by DelayFactor.
	DelayProb   float64
	DelayFactor float64
	// Stragglers maps rank -> slowdown factor applied to every attempt
	// that rank sends.
	Stragglers map[int32]float64
	// MaxRetries, when positive, is the per-message retransmission budget
	// (the runtime's default otherwise; a chain configuration may override
	// it for its chain).
	MaxRetries int
	// Crashes is the ordered multi-crash schedule: each clause kills the
	// run when the named rank reaches the given exchange sequence number
	// (see CrashError), at most once per run attempt. Unlike the message
	// faults above a crash is not recoverable by retransmission; recovery
	// is restart from a checkpoint (operator -restore, or the supervisor's
	// in-process restart, which re-arms the clauses that have not fired
	// yet). Exchange numbers are unique across clauses — two clauses at
	// the same exchange could never both fire and are rejected by Parse.
	Crashes []Crash
}

// Crash is a deterministic process-death fault: rank Rank dies when the
// runtime's exchange sequence counter reaches Exchange.
type Crash struct {
	Rank     int32
	Exchange uint64
}

// CrashSchedule returns the plan's ordered crash clauses. Safe on a nil
// plan.
func (p *Plan) CrashSchedule() []Crash {
	if p == nil {
		return nil
	}
	return p.Crashes
}

// CrashError is the typed panic value raised by a runtime honouring a crash
// fault, so drivers can distinguish the simulated process death from a bug,
// point the operator at the last checkpoint and exit distinctly.
type CrashError struct {
	Rank     int32
	Exchange uint64
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("faults: rank %d crashed at exchange %d", e.Rank, e.Exchange)
}

// Enabled reports whether the plan can inject any fault at all.
func (p *Plan) Enabled() bool {
	if p == nil {
		return false
	}
	return p.Drop > 0 || p.Corrupt > 0 || p.DelayProb > 0 || len(p.Stragglers) > 0
}

// Parse builds a Plan from a spec string. An empty spec yields a valid plan
// that injects nothing. Scalar clauses (drop, corrupt, delay, seed,
// maxretries) may appear at most once — a duplicate is rejected rather than
// last-wins; straggler and crash clauses repeat, one per rank or exchange.
func Parse(spec string) (*Plan, error) {
	p := &Plan{Seed: 1, DelayFactor: 1}
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	seen := make(map[string]bool, 4)
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("faults: clause %q is not key=value", clause)
		}
		if key != "straggler" && key != "crash" {
			if seen[key] {
				return nil, fmt.Errorf("faults: duplicate clause %q", key)
			}
			seen[key] = true
		}
		switch key {
		case "drop":
			if err := parseProb(val, &p.Drop); err != nil {
				return nil, fmt.Errorf("faults: drop: %v", err)
			}
		case "corrupt":
			if err := parseProb(val, &p.Corrupt); err != nil {
				return nil, fmt.Errorf("faults: corrupt: %v", err)
			}
		case "delay":
			// FACTORx@PROB, e.g. 5x@0.01.
			fac, prob, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("faults: delay %q is not FACTORx@PROB", val)
			}
			f, err := parseFactor(fac)
			if err != nil {
				return nil, fmt.Errorf("faults: delay: %v", err)
			}
			if err := parseProb(prob, &p.DelayProb); err != nil {
				return nil, fmt.Errorf("faults: delay: %v", err)
			}
			if p.DelayProb > 0 { // a delay that never happens is no delay: String omits it
				p.DelayFactor = f
			}
		case "straggler":
			// rankN:FACTORx, e.g. rank3:10x.
			rankStr, fac, _ := strings.Cut(val, ":")
			rank, ok := parseRank(rankStr)
			if !ok {
				return nil, fmt.Errorf("faults: straggler %q is not rankN:FACTORx", val)
			}
			f, err := parseFactor(fac)
			if err != nil {
				return nil, fmt.Errorf("faults: straggler: %v", err)
			}
			if p.Stragglers == nil {
				p.Stragglers = map[int32]float64{}
			}
			if _, dup := p.Stragglers[rank]; dup {
				return nil, fmt.Errorf("faults: two straggler clauses for rank %d", rank)
			}
			p.Stragglers[rank] = f
		case "crash":
			// rankN@E, e.g. rank0@120.
			rankStr, exchStr, _ := strings.Cut(val, "@")
			rank, ok := parseRank(rankStr)
			if !ok {
				return nil, fmt.Errorf("faults: crash %q is not rankN@EXCHANGE", val)
			}
			exch, err := strconv.ParseUint(exchStr, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: crash exchange %q: %v", exchStr, err)
			}
			for _, c := range p.Crashes {
				if c.Exchange == exch {
					return nil, fmt.Errorf("faults: two crash clauses at exchange %d (only the first could ever fire)", exch)
				}
			}
			p.Crashes = append(p.Crashes, Crash{Rank: rank, Exchange: exch})
		case "seed":
			s, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: seed %q: %v", val, err)
			}
			p.Seed = s
		case "maxretries":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("faults: maxretries %q must be a positive integer", val)
			}
			p.MaxRetries = n
		default:
			return nil, fmt.Errorf("faults: unknown clause %q", key)
		}
	}
	return p, nil
}

// MustParse is Parse for known-good specs (tests, built-in defaults).
func MustParse(spec string) *Plan {
	p, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// parseRank parses "rankN", N a rank number that fits the plan's int32.
func parseRank(s string) (int32, bool) {
	digits, ok := strings.CutPrefix(s, "rank")
	n, err := strconv.ParseInt(digits, 10, 32)
	return int32(n), ok && err == nil && n >= 0
}

func parseProb(s string, out *float64) error {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(v >= 0 && v <= 1) { // not v < 0 || v > 1: NaN compares false
		return fmt.Errorf("probability %q outside [0, 1]", s)
	}
	*out = v
	return nil
}

func parseFactor(s string) (float64, error) {
	if !strings.HasSuffix(s, "x") {
		return 0, fmt.Errorf("factor %q missing x suffix", s)
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil || !(v >= 1) || math.IsInf(v, 1) {
		return 0, fmt.Errorf("factor %q must be a finite number >= 1", s)
	}
	return v, nil
}

// String renders the plan back into spec form; the result round-trips
// through Parse. Straggler clauses appear in rank order.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	if p.Drop > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", p.Drop))
	}
	if p.Corrupt > 0 {
		parts = append(parts, fmt.Sprintf("corrupt=%g", p.Corrupt))
	}
	if p.DelayProb > 0 {
		parts = append(parts, fmt.Sprintf("delay=%gx@%g", p.DelayFactor, p.DelayProb))
	}
	ranks := make([]int32, 0, len(p.Stragglers))
	for r := range p.Stragglers {
		ranks = append(ranks, r)
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
	for _, r := range ranks {
		parts = append(parts, fmt.Sprintf("straggler=rank%d:%gx", r, p.Stragglers[r]))
	}
	for _, c := range p.Crashes {
		parts = append(parts, fmt.Sprintf("crash=rank%d@%d", c.Rank, c.Exchange))
	}
	parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	if p.MaxRetries > 0 {
		parts = append(parts, fmt.Sprintf("maxretries=%d", p.MaxRetries))
	}
	return strings.Join(parts, ",")
}

// MessageFaults renders the plan's message-fault content: the spec with the
// crash clauses stripped, "" for a plan (or a nil plan) left injecting
// nothing. It is what the checkpoint fingerprint holds of a plan, so it
// decides whether one run may continue another's snapshot: a resume need
// not re-specify the crash that killed the original run, and a supervised
// rerun extending the crash schedule continues the ring it is recovering.
func (p *Plan) MessageFaults() string {
	if !p.Enabled() {
		return ""
	}
	stripped := *p
	stripped.Crashes = nil
	return stripped.String()
}

// Judge decides the outcome of one transmission attempt. Pure: the verdict
// depends only on the plan and the attempt identity. A nil plan returns the
// clean verdict.
func (p *Plan) Judge(a Attempt) Verdict {
	v := Verdict{Delay: 1, Slow: 1}
	if p == nil {
		return v
	}
	if f, ok := p.Stragglers[a.From]; ok {
		v.Slow = f
	}
	if p.Drop == 0 && p.Corrupt == 0 && p.DelayProb == 0 {
		return v
	}
	// One independent uniform per decision stream, derived by hashing the
	// attempt identity with a per-stream salt.
	h := p.Seed
	h = mix(h, a.Exchange)
	h = mix(h, uint64(a.Msg)<<32|uint64(uint32(a.Try)))
	h = mix(h, uint64(uint32(a.From))<<32|uint64(uint32(a.To)))
	if p.Drop > 0 && uniform(mix(h, 0xd509)) < p.Drop {
		v.Drop = true
	}
	if p.Corrupt > 0 && uniform(mix(h, 0xc0de)) < p.Corrupt {
		v.Corrupt = true
	}
	if p.DelayProb > 0 && uniform(mix(h, 0xde1a)) < p.DelayProb {
		v.Delay = p.DelayFactor
	}
	return v
}

// mix is one round of splitmix64 over state^value: a fast, well-distributed
// 64-bit hash step.
func mix(state, value uint64) uint64 {
	z := state ^ value
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// uniform maps a 64-bit hash to [0, 1) using the top 53 bits.
func uniform(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}
