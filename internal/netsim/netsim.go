// Package netsim is the deterministic virtual-time network model under the
// distributed back-ends. Ranks carry virtual clocks; an exchange posts
// messages at each sender's clock, serialises messages on the sender's NIC,
// charges latency L plus size/B per message, and completes a receiver's wait
// at the latest arrival. This reproduces the communication terms of the
// paper's Equations (1)-(3): per-message cost L + m/B, message-count
// multipliers, and MAX-style overlap of core computation with communication.
package netsim

import (
	"fmt"
	"math"
)

// Message is one point-to-point halo message.
type Message struct {
	From  int32
	To    int32
	Bytes int64
}

// Network holds the link parameters.
type Network struct {
	// Latency is the fixed per-message cost L.
	Latency float64
	// Bandwidth is the per-rank injection bandwidth B in bytes/s.
	Bandwidth float64
	// EagerThreshold, when positive, models MPI's eager/rendezvous
	// protocol switch: messages larger than the threshold pay the
	// Handshake surcharge for the rendezvous round trip. Zero disables
	// the distinction.
	EagerThreshold int64
	// Handshake is the rendezvous surcharge per message above the eager
	// threshold. Zero defaults to 2*Latency (the classic request/ack
	// round trip), so existing configurations price exactly as before;
	// interconnects whose rendezvous cost is not two wire latencies set
	// it explicitly, and the model.Net pricing follows the same value.
	Handshake float64
}

// HandshakeTime returns the rendezvous surcharge one message of the given
// size pays: the resolved Handshake for messages above the eager
// threshold, 0 otherwise (eager messages, or no protocol distinction).
func (n *Network) HandshakeTime(bytes int64) float64 {
	if n.EagerThreshold <= 0 || bytes <= n.EagerThreshold {
		return 0
	}
	if n.Handshake == 0 {
		return 2 * n.Latency
	}
	return n.Handshake
}

// Validate rejects parameter combinations that would silently produce
// meaningless times: a zero or negative Bandwidth yields Inf or negative
// MessageTime, and negative Latency or EagerThreshold invert the cost
// model. Callers constructing a Network from user-supplied machine
// parameters should validate before first use; delivery also checks, so a
// bad network fails loudly at its first exchange instead of corrupting
// every downstream clock.
func (n *Network) Validate() error {
	if n.Bandwidth <= 0 || math.IsNaN(n.Bandwidth) || math.IsInf(n.Bandwidth, 0) {
		return fmt.Errorf("netsim: Bandwidth %g must be a positive, finite byte rate", n.Bandwidth)
	}
	if n.Latency < 0 || math.IsNaN(n.Latency) || math.IsInf(n.Latency, 0) {
		return fmt.Errorf("netsim: Latency %g must be a non-negative, finite time", n.Latency)
	}
	if n.EagerThreshold < 0 {
		return fmt.Errorf("netsim: EagerThreshold %d must be non-negative (0 disables)", n.EagerThreshold)
	}
	if n.Handshake < 0 || math.IsNaN(n.Handshake) || math.IsInf(n.Handshake, 0) {
		return fmt.Errorf("netsim: Handshake %g must be a non-negative, finite time (0 defaults to 2*Latency)", n.Handshake)
	}
	return nil
}

// MessageTime returns the network occupancy of one message: L + bytes/B,
// plus the rendezvous handshake for messages above the eager threshold.
func (n *Network) MessageTime(bytes int64) float64 {
	return n.Latency + float64(bytes)/n.Bandwidth + n.HandshakeTime(bytes)
}

// Protocol selects how a message occupies its sender's NIC.
type Protocol uint8

const (
	// Bulk is the bulk-synchronous protocol: a message holds the NIC for
	// its whole L + m/B (+ rendezvous handshake) and arrives when the NIC
	// releases it.
	Bulk Protocol = iota
	// Overlapped is the pipelined post/complete protocol of the
	// overlap-capable chain executor. The sender initiates the rendezvous
	// handshake at its post time and injects the payload — only m/B
	// occupies the NIC, so later messages queue behind earlier injections,
	// not behind their wire latencies or handshake round trips — and the
	// receiver sees the message one wire latency after the injection
	// finishes: arrival = max(NIC free, post + handshake) + m/B + L. A
	// sender's first (or only) message prices as under Bulk up to
	// floating-point summation order; each further message from the same
	// sender saves its latency and handshake, the serial fraction the
	// bulk-synchronous model leaves on the critical path.
	Overlapped
)

// Record is one message's place on its sender's NIC timeline.
type Record struct {
	// Start is when the first transmission attempt began.
	Start float64
	// InjectEnd is when the final attempt released the sender's NIC: the
	// arrival under Bulk, one wire latency before it under Overlapped.
	InjectEnd float64
	// Arrival is when the final attempt reached the receiver.
	Arrival float64
}

// Attempts is Timeline's per-attempt verdict source: what a fault-injecting
// transport does to each transmission attempt and when a failed one is
// retransmitted. The two calls for one attempt are consecutive, so an
// implementation may carry its verdict from Judge to Settle.
type Attempts interface {
	// Judge returns the slowdown factors of attempt try of message i: the
	// attempt occupies the NIC for its clean occupancy * slow * delay. Both
	// are exactly 1 for an unperturbed attempt.
	Judge(i, try int, m Message) (slow, delay float64)
	// Settle is told the attempt's arrival. It returns retry = false when
	// the attempt stands — delivered, or abandoned — and otherwise the time
	// the sender's NIC, idle until then, starts the retransmission.
	Settle(i, try int, m Message, arrival float64) (retryAt float64, retry bool)
}

// Timeline is the one message-timeline primitive: it walks msgs in order,
// serialising each sender's messages on its NIC under the given protocol,
// and appends one Record per message to recs (pass reusable storage
// truncated to length 0; with enough capacity nothing is allocated).
// post[r] is the virtual time rank r posted its sends. busy[r] is rank r's
// NIC-free time, advanced in place: an exchange starts it at post (copy
// post into busy), a caller pricing one exchange in several calls carries
// it over. A nil src is the fault-free transport: every attempt is judged
// with factors of exactly 1.0 and stands, and since x*1.0 == x the clean
// clocks are the faulted arithmetic's own bits, not a second formula.
func (n *Network) Timeline(p Protocol, src Attempts, recs []Record, busy, post []float64, msgs []Message) []Record {
	if err := n.Validate(); err != nil {
		panic(err.Error())
	}
	for i, m := range msgs {
		if int(m.From) >= len(post) || m.From < 0 {
			panic(fmt.Sprintf("netsim: message %d from invalid rank %d", i, m.From))
		}
		start := busy[m.From]
		// occupy is the attempt's clean NIC occupancy, wire the flight time
		// after the NIC lets go (adding Bulk's 0 is exact).
		occupy, wire := n.MessageTime(m.Bytes), 0.0
		if p == Overlapped {
			// The rendezvous completes once, before the first attempt: a
			// retransmission waits only for detection, backoff and the NIC.
			if hs := post[m.From] + n.HandshakeTime(m.Bytes); hs > start {
				start = hs
			}
			occupy, wire = float64(m.Bytes)/n.Bandwidth, n.Latency
		}
		rec := Record{Start: start}
		for try := 0; ; try++ {
			slow, delay := 1.0, 1.0
			if src != nil {
				slow, delay = src.Judge(i, try, m)
			}
			rec.InjectEnd = start + occupy*slow*delay
			rec.Arrival = rec.InjectEnd + wire
			busy[m.From] = rec.InjectEnd
			if src == nil {
				break
			}
			retryAt, retry := src.Settle(i, try, m, rec.Arrival)
			if !retry {
				break
			}
			busy[m.From], start = retryAt, retryAt
		}
		recs = append(recs, rec)
	}
	return recs
}

// DeliverInto appends to arrival the fault-free Bulk arrival time of every
// message of one exchange, parallel to msgs, and returns it (pass a reusable
// slice truncated to length 0). busy, which must have len(post) elements, is
// scratch for the NIC-free times. With enough capacity in arrival nothing is
// allocated.
func (n *Network) DeliverInto(arrival, busy, post []float64, msgs []Message) []float64 {
	return n.arrivals(Bulk, arrival, busy, post, msgs)
}

// DeliverOverlappedInto is DeliverInto under the Overlapped protocol.
func (n *Network) DeliverOverlappedInto(arrival, busy, post []float64, msgs []Message) []float64 {
	return n.arrivals(Overlapped, arrival, busy, post, msgs)
}

// arrivals runs the fault-free Timeline of one exchange and keeps only the
// arrival times, through a fixed stack window of records so callers supply
// no record storage.
func (n *Network) arrivals(p Protocol, arrival, busy, post []float64, msgs []Message) []float64 {
	copy(busy, post)
	var window [64]Record
	for len(msgs) > 0 {
		k := min(len(msgs), len(window))
		for _, rec := range n.Timeline(p, nil, window[:0], busy, post, msgs[:k]) {
			arrival = append(arrival, rec.Arrival)
		}
		msgs = msgs[k:]
	}
	return arrival
}

// ReduceTime returns the cost of a tree allreduce of the given payload over
// nparts ranks: ceil(log2 p) message steps.
func (n *Network) ReduceTime(nparts int, bytes int64) float64 {
	if nparts <= 1 {
		return 0
	}
	steps := 0
	for p := nparts - 1; p > 0; p >>= 1 {
		steps++
	}
	return float64(steps) * n.MessageTime(bytes)
}
