package netsim

import (
	"math"
	"testing"
)

// goldenNet and goldenMsgs are a fixed multi-sender exchange mixing eager
// and rendezvous messages (threshold 8192, explicit handshake), with a
// sender that returns after others have been priced. The arrival bits below
// were captured from DeliverInto and DeliverOverlappedInto before the
// delivery arithmetic was folded into Timeline.
var (
	goldenNet  = Network{Latency: 1.7e-6, Bandwidth: 12.5e9, EagerThreshold: 8192, Handshake: 3.1e-6}
	goldenPost = []float64{1.0e-3, 1.0007e-3, 0.99931e-3, 1.00213e-3}
	goldenMsgs = []Message{
		{From: 0, To: 1, Bytes: 4096}, {From: 0, To: 2, Bytes: 65536}, {From: 0, To: 3, Bytes: 8192},
		{From: 1, To: 0, Bytes: 131072}, {From: 1, To: 2, Bytes: 24},
		{From: 2, To: 3, Bytes: 8200}, {From: 2, To: 0, Bytes: 777}, {From: 2, To: 1, Bytes: 1 << 20},
		{From: 3, To: 0, Bytes: 16},
		{From: 0, To: 1, Bytes: 9000},
	}
	goldenBulk = []uint64{
		0x3f506acf0760dbb1, 0x3f5094ee7d366299, 0x3f509ecf89a3abe4, 0x3f50a55a673196ec, 0x3f50ac7dd366ae2e,
		0x3f50764b470c6a2d, 0x3f507daf61e6a7a5, 0x3f51f1a955f24b72, 0x3f50725fa12bdb64, 0x3f50b5f697af883b,
	}
	goldenOverlapped = []uint64{
		0x3f506acf0760dbb1, 0x3f508c6d48c730e5, 0x3f508f2cf8c36012, 0x3f50a55a673196ec, 0x3f50a55c76f5940f,
		0x3f50764b470c6a2d, 0x3f50768e05758d86, 0x3f51d666038d23cf, 0x3f50725fa12bdb65, 0x3f50923210db2ee6,
	}
)

func timeline(p Protocol, src Attempts) []Record {
	busy := append([]float64(nil), goldenPost...)
	return goldenNet.Timeline(p, src, nil, busy, goldenPost, goldenMsgs)
}

// TestGoldenArrivals: the wrappers' clocks did not move by a bit.
func TestGoldenArrivals(t *testing.T) {
	for _, tc := range []struct {
		name    string
		deliver func(arrival, busy, post []float64, msgs []Message) []float64
		want    []uint64
	}{
		{"bulk", goldenNet.DeliverInto, goldenBulk},
		{"overlapped", goldenNet.DeliverOverlappedInto, goldenOverlapped},
	} {
		got := tc.deliver(nil, make([]float64, len(goldenPost)), goldenPost, goldenMsgs)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d arrivals, want %d", tc.name, len(got), len(tc.want))
		}
		for i, a := range got {
			if math.Float64bits(a) != tc.want[i] {
				t.Errorf("%s: arrival[%d] = %#016x (%v), want %#016x", tc.name, i, math.Float64bits(a), a, tc.want[i])
			}
		}
	}
}

// TestDeliverIntoWindowed: the wrappers price through a fixed window of
// records; an exchange longer than the window must continue each sender's
// NIC where the previous window left it.
func TestDeliverIntoWindowed(t *testing.T) {
	var msgs []Message
	for i := 0; i < 200; i++ {
		msgs = append(msgs, Message{From: int32(i % 3), To: int32((i + 1) % 3), Bytes: int64(64 + 977*i)})
	}
	post := []float64{1e-3, 2e-3, 3e-3}
	for _, p := range []Protocol{Bulk, Overlapped} {
		busy := append([]float64(nil), post...)
		want := goldenNet.Timeline(p, nil, nil, busy, post, msgs)
		got := goldenNet.arrivals(p, nil, make([]float64, len(post)), post, msgs)
		for i := range want {
			if got[i] != want[i].Arrival {
				t.Fatalf("protocol %d: arrival[%d] = %v through the window, %v in one call", p, i, got[i], want[i].Arrival)
			}
		}
	}
}

// ones judges every attempt clean and lets it stand.
type ones struct{ judged, settled int }

func (o *ones) Judge(i, try int, m Message) (float64, float64) { o.judged++; return 1, 1 }
func (o *ones) Settle(i, try int, m Message, arrival float64) (float64, bool) {
	o.settled++
	return 0, false
}

// TestNilSourceIsAllOnes: a nil verdict source is not a separate clean
// formula — it is the faulted arithmetic with factors of exactly 1.0, so
// an all-ones source reproduces every record bit for bit.
func TestNilSourceIsAllOnes(t *testing.T) {
	for _, p := range []Protocol{Bulk, Overlapped} {
		src := &ones{}
		clean, judged := timeline(p, nil), timeline(p, src)
		if src.judged != len(goldenMsgs) || src.settled != len(goldenMsgs) {
			t.Errorf("protocol %d: %d judged, %d settled, want one attempt per message", p, src.judged, src.settled)
		}
		for i := range clean {
			if clean[i] != judged[i] {
				t.Errorf("protocol %d: record[%d] = %+v with all-ones verdicts, %+v with none", p, i, judged[i], clean[i])
			}
		}
	}
}

// TestRecordsTellTheTimeline: Start and InjectEnd are the timeline the
// arrivals came from, so nothing downstream has to replay it. A sender's
// first message starts at its post time (bulk) or once the handshake is
// done (overlapped); every further one starts where the previous one
// released the NIC, or at its own handshake if that is later; the NIC is
// released at the arrival (bulk) or one wire latency before it
// (overlapped).
func TestRecordsTellTheTimeline(t *testing.T) {
	n := goldenNet
	for _, p := range []Protocol{Bulk, Overlapped} {
		recs := timeline(p, nil)
		free := map[int32]float64{}
		for i, m := range goldenMsgs {
			want, seen := free[m.From]
			if !seen {
				want = goldenPost[m.From]
			}
			if hs := goldenPost[m.From] + n.HandshakeTime(m.Bytes); p == Overlapped && hs > want {
				want = hs
			}
			if recs[i].Start != want {
				t.Errorf("protocol %d: record[%d].Start = %v, want %v", p, i, recs[i].Start, want)
			}
			lead := 0.0
			if p == Overlapped {
				lead = n.Latency
			}
			if recs[i].InjectEnd+lead != recs[i].Arrival {
				t.Errorf("protocol %d: record[%d] releases the NIC at %v, arrives %v", p, i, recs[i].InjectEnd, recs[i].Arrival)
			}
			free[m.From] = recs[i].InjectEnd
		}
	}
}

// flaky fails each message's first `fails` attempts, retransmitting a
// fixed gap after the failed arrival, and slows every attempt.
type flaky struct {
	fails     int
	gap       float64
	slow, dly float64
}

func (f flaky) Judge(i, try int, m Message) (float64, float64) { return f.slow, f.dly }
func (f flaky) Settle(i, try int, m Message, arrival float64) (float64, bool) {
	return arrival + f.gap, try < f.fails
}

// TestRetransmissions: a failed attempt idles the NIC until the source's
// retry time, every attempt re-occupies it for the slowed occupancy, the
// overlapped handshake is paid once, and Start stays the first attempt's.
func TestRetransmissions(t *testing.T) {
	n := Network{Latency: 1, Bandwidth: 1, EagerThreshold: 4, Handshake: 3}
	msgs := []Message{{From: 0, To: 1, Bytes: 10}, {From: 0, To: 1, Bytes: 2}}
	src := flaky{fails: 1, gap: 5, slow: 2, dly: 1.5}
	post := []float64{100, 0}

	// Bulk: each attempt holds the NIC for (1 + 10 + 3) * 3 = 42: arrival
	// 142, retry at 147, arrival 189.
	recs := n.Timeline(Bulk, src, nil, []float64{100, 0}, post, msgs)
	if recs[0] != (Record{Start: 100, InjectEnd: 189, Arrival: 189}) {
		t.Errorf("bulk record[0] = %+v", recs[0])
	}
	// Second message (eager): (1 + 2) * 3 = 9 per attempt from 189: 198, retry 203, 212.
	if recs[1] != (Record{Start: 189, InjectEnd: 212, Arrival: 212}) {
		t.Errorf("bulk record[1] = %+v", recs[1])
	}

	// Overlapped: handshake ready at 103; injection 10*3 = 30 per attempt,
	// arrival one latency later: 133/134, retry at 139, 169/170.
	recs = n.Timeline(Overlapped, src, nil, []float64{100, 0}, post, msgs)
	if recs[0] != (Record{Start: 103, InjectEnd: 169, Arrival: 170}) {
		t.Errorf("overlapped record[0] = %+v", recs[0])
	}
	// Second message queues behind the injection, not the arrival: 169 + 6
	// = 175/176, retry at 181, 187/188.
	if recs[1] != (Record{Start: 169, InjectEnd: 187, Arrival: 188}) {
		t.Errorf("overlapped record[1] = %+v", recs[1])
	}
}

// TestTimelineZeroAlloc: with caller storage the clean path allocates
// nothing, through Timeline and through both wrappers.
func TestTimelineZeroAlloc(t *testing.T) {
	recs := make([]Record, 0, len(goldenMsgs))
	arrival := make([]float64, 0, len(goldenMsgs))
	busy := make([]float64, len(goldenPost))
	for name, f := range map[string]func(){
		"Timeline bulk": func() {
			copy(busy, goldenPost)
			recs = goldenNet.Timeline(Bulk, nil, recs[:0], busy, goldenPost, goldenMsgs)
		},
		"Timeline overlapped": func() {
			copy(busy, goldenPost)
			recs = goldenNet.Timeline(Overlapped, nil, recs[:0], busy, goldenPost, goldenMsgs)
		},
		"DeliverInto": func() { arrival = goldenNet.DeliverInto(arrival[:0], busy, goldenPost, goldenMsgs) },
		"DeliverOverlappedInto": func() {
			arrival = goldenNet.DeliverOverlappedInto(arrival[:0], busy, goldenPost, goldenMsgs)
		},
	} {
		if n := testing.AllocsPerRun(20, f); n != 0 {
			t.Errorf("%s allocates %v per run, want 0", name, n)
		}
	}
}
