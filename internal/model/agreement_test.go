package model_test

// agreement_test.go pins the model against the network simulator across
// the machine presets: the analytic per-message and per-exchange prices
// (model.Net) must track the event-driven delivery (netsim.Network) built
// from the same machine parameters, handshake included. Before the
// Handshake field existed, netsim hardcoded the rendezvous surcharge as
// 2*Latency while a preset could only express it through the model side —
// the drift this file exists to prevent.

import (
	"math"
	"testing"

	"op2ca/internal/machine"
	"op2ca/internal/model"
	"op2ca/internal/netsim"
)

// nets builds the two pricing views from one machine preset, the same way
// the cluster backend does (cluster.Backend.modelNet).
func nets(m *machine.Machine) (netsim.Network, model.Net) {
	nw := netsim.Network{
		Latency: m.Latency, Bandwidth: m.Bandwidth,
		EagerThreshold: m.EagerThreshold, Handshake: m.Handshake,
	}
	mn := model.Net{
		L: m.Latency, B: m.Bandwidth,
		EagerThreshold: float64(m.EagerThreshold), Handshake: m.HandshakeTime(),
	}
	return nw, mn
}

// TestMsgTimeMatchesNetsim sweeps message sizes across every preset's
// eager boundary: model.Net.MsgTime and netsim.Network.MessageTime must
// agree everywhere, including at exactly the threshold (still eager) and
// one byte above it (rendezvous).
func TestMsgTimeMatchesNetsim(t *testing.T) {
	for _, m := range []*machine.Machine{machine.ARCHER2(), machine.Cirrus(), machine.Laptop()} {
		nw, mn := nets(m)
		sizes := []int64{0, 1, 512, 1 << 20}
		if th := m.EagerThreshold; th > 0 {
			sizes = append(sizes, th-1, th, th+1)
		}
		for _, b := range sizes {
			got := mn.MsgTime(float64(b))
			want := nw.MessageTime(b)
			if math.Abs(got-want) > 1e-15 {
				t.Errorf("%s: MsgTime(%d) = %g, netsim MessageTime = %g", m.Name, b, got, want)
			}
		}
	}
}

// TestCommTimeMatchesNetsimDelivery prices a k-message single-sender
// exchange both ways in both delivery modes: model.Net.CommTime must
// equal the last netsim arrival (relative to the post time) under DeliverInto
// for bulk and DeliverOverlappedInto for overlapped.
func TestCommTimeMatchesNetsimDelivery(t *testing.T) {
	const k = 4
	for _, m := range []*machine.Machine{machine.ARCHER2(), machine.Cirrus(), machine.Laptop()} {
		nw, mn := nets(m)
		sizes := []int64{100, 1 << 17}
		if th := m.EagerThreshold; th > 0 {
			sizes = append(sizes, th, th+1)
		}
		for _, b := range sizes {
			msgs := make([]netsim.Message, k)
			for i := range msgs {
				msgs[i] = netsim.Message{From: 0, To: 1, Bytes: b}
			}
			post := []float64{0, 0}
			for _, overlap := range []bool{false, true} {
				arr := nw.DeliverInto(nil, make([]float64, len(post)), post, msgs)
				if overlap {
					arr = nw.DeliverOverlappedInto(nil, make([]float64, len(post)), post, msgs)
				}
				mo := mn
				mo.Overlap = overlap
				got := mo.CommTime(k, float64(b))
				want := arr[k-1]
				if math.Abs(got-want) > 1e-12*math.Max(1, want) {
					t.Errorf("%s overlap=%v bytes=%d: CommTime = %g, netsim last arrival = %g",
						m.Name, overlap, b, got, want)
				}
			}
		}
	}
}

// TestPresetHandshakeConsistency pins each preset's declared Handshake
// against the resolved HandshakeTime and both pricing sides' view of it:
// a preset that sets Handshake explicitly must see that exact surcharge
// in netsim and in the model, and a preset leaving it zero must resolve
// to the 2*Latency default in both.
func TestPresetHandshakeConsistency(t *testing.T) {
	for _, m := range []*machine.Machine{machine.ARCHER2(), machine.Cirrus(), machine.Laptop()} {
		want := m.Handshake
		if want == 0 {
			want = 2 * m.Latency
		}
		if got := m.HandshakeTime(); got != want {
			t.Errorf("%s: HandshakeTime = %g, want %g", m.Name, got, want)
		}
		if m.EagerThreshold == 0 {
			continue // no rendezvous regime to compare
		}
		nw, mn := nets(m)
		if got := nw.HandshakeTime(m.EagerThreshold + 1); got != want {
			t.Errorf("%s: netsim handshake = %g, want %g", m.Name, got, want)
		}
		step := mn.MsgTime(float64(m.EagerThreshold+1)) - mn.MsgTime(float64(m.EagerThreshold)) -
			1/mn.B
		if math.Abs(step-want) > 1e-12 {
			t.Errorf("%s: model handshake step = %g, want %g", m.Name, step, want)
		}
	}
}
