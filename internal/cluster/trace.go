package cluster

import (
	"op2ca/internal/netsim"
	"op2ca/internal/obs"
)

// trace.go holds the tracer hook points of the execution path. All span
// emission happens after (or beside) the virtual-time arithmetic, computed
// from the same inputs that produced it, and is gated on tracer.Enabled()
// — tracing observes the clocks and can never perturb them.

// emitPackSpans records, per sending rank, the pack phase (gathering
// export elements into send buffers at PackRate) and, on staged GPU
// machines, the device-to-host PCIe transfer on the rank's staging track.
// It must run before the rank clocks are advanced past the exchange.
func (b *Backend) emitPackSpans(name string, sendBytes []int64) {
	m := b.cfg.Machine
	for r := range sendBytes {
		if sendBytes[r] == 0 {
			continue
		}
		packEnd := b.clock[r] + float64(sendBytes[r])/m.PackRate
		b.tracer.Emit(int32(r), obs.TrackExec, obs.Pack, name, b.clock[r], packEnd, sendBytes[r])
		if m.GPU != nil && !b.cfg.GPUDirect {
			m.GPU.TraceStage(b.tracer, int32(r), name+" d2h", packEnd, sendBytes[r])
		}
	}
}

// emitSendSpans records the sending side of one exchange — the pack spans,
// then one Send span per message on the sender's track, from its NIC
// transmission start to its arrival as the delivery timeline recorded them —
// and returns the message indices grouped by receiving rank, for the wait
// spans.
func (b *Backend) emitSendSpans(name string, res *exchangeSchedule, recs []netsim.Record) [][]int {
	b.emitPackSpans(name, res.sendBytes)
	inbound := make([][]int, b.cfg.NParts)
	for i, msg := range res.msgs {
		b.tracer.Emit(msg.From, obs.TrackExec, obs.Send, name, recs[i].Start, recs[i].Arrival, msg.Bytes)
		inbound[msg.To] = append(inbound[msg.To], i)
	}
	return inbound
}

// emitWaitSpans records one Wait span per inbound message on the
// receiver's track: from the moment the rank finished its core work
// (ready) until the message's arrival. A message fully hidden by core
// computation yields a zero-length span — still one span per neighbour
// message, so traces expose the paper's Figure 5 (one exchange per loop)
// versus Figure 8 (one grouped exchange per chain) contrast structurally.
// Each message also contributes an EdgeMsg causal edge carrying the times
// the critical-path and wait-attribution analyses need: the sender's post
// (pack and staging done), the NIC transmission start, the arrival and the
// receiver's wait start.
func (b *Backend) emitWaitSpans(name string, r int, ready float64, inbound []int,
	msgs []netsim.Message, recs []netsim.Record, post []float64) {
	for _, i := range inbound {
		end := recs[i].Arrival
		if end < ready {
			end = ready
		}
		b.tracer.Emit(int32(r), obs.TrackExec, obs.Wait, name, ready, end, msgs[i].Bytes)
		b.tracer.EmitEdge(obs.Edge{
			Kind: obs.EdgeMsg, Name: name, From: msgs[i].From, To: int32(r),
			Post: post[msgs[i].From], Begin: recs[i].Start, End: recs[i].Arrival,
			Ready: ready, Bytes: msgs[i].Bytes,
		})
	}
}
