package cluster

// recovery.go is the fault-tolerant delivery layer between the deterministic
// fault plan (package faults) and the virtual network (package netsim). All
// simulated transfers move data reliably — pack and unpack copy values
// unconditionally — so injected faults shape only the virtual clocks, the
// fault counters and the trace: a faulted run's results are bit-identical to
// the fault-free run by construction, exactly as a real fault-tolerant
// transport hides losses from the application.
//
// A lost or corrupt attempt is detected one timeout (4L of the machine)
// after its (non-)arrival and retransmitted after an exponential backoff
// (L * 2^attempt); every retransmission occupies the sender's NIC for
// another L + m/B. A message that exhausts its budget of retransmissions
// (Config.Faults) is a giveup: per-loop exchanges treat it as delivered by a
// reliable transport at the final attempt's arrival, while CA chains degrade
// the whole window (see runChainImpl's degradation ladder).

import (
	"op2ca/internal/chaincfg"
	"op2ca/internal/faults"
	"op2ca/internal/netsim"
	"op2ca/internal/obs"
)

// delivery is the outcome of one exchange's message delivery.
type delivery struct {
	// recs parallels the exchange's messages: each message's place on its
	// sender's NIC timeline. Arrival is that of the first usable copy, or of
	// the final failed attempt for given-up messages. Aliases Backend
	// scratch, valid until the next deliver.
	recs []netsim.Record
	// giveups counts messages that exhausted the retransmission budget.
	giveups int
	// failAt is the latest final-attempt arrival among given-up messages.
	failAt float64
}

// restartTime is the virtual time the runtime learns the exchange cannot
// complete: one detection timeout after the last given-up attempt's arrival.
func (d delivery) restartTime(timeout float64) float64 { return d.failAt + timeout }

// deliver prices one exchange's messages on the netsim timeline under the
// given protocol (netsim.Overlapped for overlap-enabled chains, see
// overlapFor) and the configured fault plan, charging retransmissions,
// backoff and straggler slowdowns in virtual time and counting every event
// into the run's FaultStats. With no plan (or a plan that injects nothing)
// the timeline runs without a verdict source — the same arithmetic with
// factors of exactly 1.0, so enabling fault injection with zero
// probabilities does not perturb a single clock bit. owner labels the
// retry/giveup trace spans (the chain or kernel name).
func (b *Backend) deliver(post []float64, msgs []netsim.Message, owner string, maxRetries int, proto netsim.Protocol) delivery {
	seq := b.exchangeGate(owner)
	sc := &b.scr
	var src netsim.Attempts
	if b.cfg.Faults.Enabled() {
		sc.retry = retrier{b: b, seq: seq, owner: owner, maxRetries: maxRetries}
		src = &sc.retry
	}
	copy(sc.busy, post)
	sc.recs = b.net.Timeline(proto, src, sc.recs[:0], sc.busy, post, msgs)
	if src != nil {
		return delivery{recs: sc.recs, giveups: sc.retry.giveups, failAt: sc.retry.failAt}
	}
	if ct := b.tuneSampling; ct != nil && proto == netsim.Bulk {
		// Calibration sampling: each message's own span, NIC-ready to
		// arrival. Only clean bulk deliveries feed the fit — retransmission
		// noise would poison the L/B regression, and an overlapped span is
		// m/B + L minus queueing, not the h*L + m/B the per-loop probe
		// windows decompose into.
		for i, m := range msgs {
			ct.cal.AddExchange(m.Bytes, sc.recs[i].Arrival-sc.recs[i].Start)
		}
	}
	return delivery{recs: sc.recs}
}

// retrier is the fault-tolerant transport on top of the netsim timeline: it
// hands the fault plan's verdict on each transmission attempt to the
// timeline and decides what a failed attempt costs — the one place the
// retry/backoff/giveup policy, its FaultStats counters and its trace spans
// live, whatever the protocol.
type retrier struct {
	b          *Backend
	seq        uint64
	owner      string
	maxRetries int
	// v is the verdict on the attempt being priced, from Judge to Settle.
	v       faults.Verdict
	giveups int
	failAt  float64
}

func (rt *retrier) Judge(i, try int, m netsim.Message) (slow, delay float64) {
	rt.v = rt.b.cfg.Faults.Judge(faults.Attempt{Exchange: rt.seq, Msg: i, Try: try, From: m.From, To: m.To})
	return rt.v.Slow, rt.v.Delay
}

func (rt *retrier) Settle(i, try int, m netsim.Message, arr float64) (retryAt float64, retry bool) {
	b := rt.b
	fs := &b.stats.Faults
	traced := b.tracer.Enabled()
	if rt.v.Delay > 1 {
		fs.Delays++
	}
	if !rt.v.Failed() {
		return 0, false
	}
	if rt.v.Drop {
		fs.Drops++
	} else {
		fs.Corrupts++
	}
	if try >= rt.maxRetries {
		fs.Giveups++
		rt.giveups++
		if arr > rt.failAt {
			rt.failAt = arr
		}
		if traced {
			b.tracer.Emit(m.From, obs.TrackExec, obs.Giveup, rt.owner,
				arr, arr+b.retryTimeout, m.Bytes)
		}
		return 0, false
	}
	fs.Retries++
	// Detection one timeout after the failed attempt, then the exponential
	// backoff; the NIC sits idle until the retransmit.
	next := arr + b.retryTimeout + b.retryBackoff*backoffFactor(try)
	if traced {
		b.tracer.Emit(m.From, obs.TrackExec, obs.Retry, rt.owner, arr, next, m.Bytes)
		// The retry edge lets the critical-path walk and the wait
		// attribution charge this stretch of the message's window to
		// retransmission rather than transit.
		b.tracer.EmitEdge(obs.Edge{
			Kind: obs.EdgeRetry, Name: rt.owner, From: m.From, To: m.From,
			Post: arr, Begin: arr, End: next, Ready: arr, Bytes: m.Bytes,
		})
	}
	return next, true
}

// exchangeGate runs the per-exchange control checks shared by the bulk and
// overlapped delivery paths — sequence numbering, cooperative cancellation,
// scheduled crashes and the no-progress watchdog — and returns the
// exchange's sequence number.
func (b *Backend) exchangeGate(owner string) uint64 {
	seq := b.faultSeq
	b.faultSeq++
	// Cooperative cancellation is observed only here, at the exchange
	// boundary — never mid-kernel or mid-pack — so every ring generation
	// written before this point is complete and restorable. An atomic load
	// keeps the clean path allocation-free and branch-cheap.
	if b.cancelled.Load() {
		panic(&CancelledError{Exchange: seq})
	}
	plan := b.cfg.Faults
	// Crash faults fire before any message arithmetic: the process dies at
	// a deterministic exchange sequence number, recoverable only by
	// restarting from a checkpoint. Each clause is gated by its own armed
	// flag: Restore disarms all of them (a manually resumed run replays the
	// pre-crash exchanges without dying again), while a supervisor re-arms
	// the clauses that have not fired yet so the rest of a multi-crash
	// schedule still fires on the resumed run.
	for i, c := range plan.CrashSchedule() {
		if seq == c.Exchange && i < len(b.crashArmed) && b.crashArmed[i] {
			b.crashArmed[i] = false
			panic(&faults.CrashError{Rank: c.Rank, Exchange: c.Exchange})
		}
	}
	// The no-progress watchdog trips when the clock has advanced past the
	// deadline since the last completed exchange — the virtual-time
	// signature of a stall (e.g. a giveup storm inflating retry backoff).
	if b.watchdog > 0 {
		now := b.MaxClock()
		if now-b.lastProgress > b.watchdog {
			if b.tracer.Enabled() {
				b.tracer.Emit(0, obs.TrackExec, obs.Watchdog, owner, b.lastProgress, now, 0)
			}
			panic(&HangError{Exchange: seq, Last: b.lastProgress, Clock: now, Deadline: b.watchdog})
		}
		b.lastProgress = now
	}
	return seq
}

// maxRetryBudget bounds every user-settable retransmission budget (the fault
// plan's and the chain file's maxretries). Well before 1000 retries the
// exponential backoff dwarfs any simulated runtime; rejecting larger values
// in cluster.New keeps the backoff arithmetic far from its try>=63
// saturation point (see backoffFactor).
const maxRetryBudget = 1000

// backoffFactor is the exponential backoff multiplier 2^try, saturated at
// 2^62: `int64(1) << try` overflows to a *negative* factor at try >= 63,
// which would move the retransmission back in virtual time. maxretries= is
// user-settable (chaincfg), so the boundary is reachable from config.
func backoffFactor(try int) float64 {
	if try >= 62 {
		return float64(int64(1) << 62)
	}
	return float64(int64(1) << uint(try))
}

// maxRetriesFor resolves the per-message retransmission budget for one
// chain: the chain configuration's maxretries override when present, else
// the backend-wide budget.
func (b *Backend) maxRetriesFor(c *chaincfg.Chain) int {
	if c != nil && c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return b.maxRetries
}
