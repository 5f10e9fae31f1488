package netsim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMessageTime(t *testing.T) {
	n := &Network{Latency: 1e-6, Bandwidth: 1e9}
	if got := n.MessageTime(1000); !almost(got, 1e-6+1e-6) {
		t.Errorf("MessageTime(1000) = %g, want 2e-6", got)
	}
	if got := n.MessageTime(0); !almost(got, 1e-6) {
		t.Errorf("MessageTime(0) = %g, want latency only", got)
	}
}

func TestDeliverSerialisesPerSender(t *testing.T) {
	n := &Network{Latency: 1, Bandwidth: 1}
	post := []float64{10, 20}
	msgs := []Message{
		{From: 0, To: 1, Bytes: 2}, // 10 + (1+2) = 13
		{From: 0, To: 1, Bytes: 3}, // 13 + (1+3) = 17
		{From: 1, To: 0, Bytes: 1}, // 20 + (1+1) = 22
	}
	arr := n.Deliver(post, msgs)
	want := []float64{13, 17, 22}
	for i := range want {
		if !almost(arr[i], want[i]) {
			t.Errorf("arrival[%d] = %g, want %g", i, arr[i], want[i])
		}
	}
}

func TestEagerRendezvousThreshold(t *testing.T) {
	n := &Network{Latency: 1e-6, Bandwidth: 1e9, EagerThreshold: 1024}
	small := n.MessageTime(1024) // at the threshold: still eager
	large := n.MessageTime(1025) // one byte over: rendezvous round trip
	if diff := large - small; diff < 2*n.Latency {
		t.Errorf("rendezvous penalty = %g, want >= 2L", diff)
	}
	// Disabled threshold: no penalty anywhere.
	n.EagerThreshold = 0
	if n.MessageTime(1<<20) != n.Latency+float64(1<<20)/n.Bandwidth {
		t.Error("disabled threshold must not add penalties")
	}
}

// TestEagerBoundaryExact pins the protocol-switch boundary: a message of
// exactly EagerThreshold bytes is still eager (no handshake); one byte
// more pays the full rendezvous surcharge. The boundary held historically
// but was untested, leaving it one refactor away from silently inverting.
func TestEagerBoundaryExact(t *testing.T) {
	n := &Network{Latency: 1e-6, Bandwidth: 1e9, EagerThreshold: 1024}
	if hs := n.HandshakeTime(1024); hs != 0 {
		t.Errorf("HandshakeTime(threshold) = %g, want 0 (eager)", hs)
	}
	if hs := n.HandshakeTime(1025); !almost(hs, 2*n.Latency) {
		t.Errorf("HandshakeTime(threshold+1) = %g, want 2L", hs)
	}
	if hs := n.HandshakeTime(0); hs != 0 {
		t.Errorf("HandshakeTime(0) = %g, want 0", hs)
	}
}

// TestHandshakeResolution pins the Handshake field's semantics: zero
// defaults to 2*Latency (the historical hardcoded round trip), an
// explicit value replaces the default, and Validate rejects nonsense.
// The machine presets and the model.Net pricing both lean on this.
func TestHandshakeResolution(t *testing.T) {
	n := &Network{Latency: 1e-6, Bandwidth: 1e9, EagerThreshold: 100}
	if hs := n.HandshakeTime(200); !almost(hs, 2e-6) {
		t.Errorf("default handshake = %g, want 2*Latency", hs)
	}
	n.Handshake = 5e-6
	if hs := n.HandshakeTime(200); !almost(hs, 5e-6) {
		t.Errorf("explicit handshake = %g, want 5e-6", hs)
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		b := Network{Latency: 1e-6, Bandwidth: 1e9, Handshake: bad}
		if err := b.Validate(); err == nil || !strings.Contains(err.Error(), "Handshake") {
			t.Errorf("Validate(Handshake=%g) = %v, want Handshake error", bad, err)
		}
	}
}

// TestDeliverOverlappedSingleMatchesBulk: a sender's first message prices
// identically in both modes — max(NIC free, post+handshake) + m/B + L
// collapses to post + handshake + m/B + L — equal up to floating-point
// summation order, so single-message exchanges cost the same and the
// overlap executor stays backward compatible.
func TestDeliverOverlappedSingleMatchesBulk(t *testing.T) {
	n := &Network{Latency: 3e-6, Bandwidth: 1e8, EagerThreshold: 512}
	post := []float64{1.5, 2.25, 0.125}
	for _, bytes := range []int64{0, 100, 512, 513, 1 << 16} {
		msgs := []Message{{From: 0, To: 1, Bytes: bytes}, {From: 1, To: 2, Bytes: bytes}, {From: 2, To: 0, Bytes: bytes}}
		bulk := n.Deliver(post, msgs)
		ov := n.DeliverOverlapped(post, msgs)
		for i := range bulk {
			if !almost(bulk[i], ov[i]) {
				t.Errorf("bytes=%d msg %d: bulk %v != overlapped %v", bytes, i, bulk[i], ov[i])
			}
		}
	}
}

// TestDeliverOverlappedPipelines: k messages from one sender save exactly
// (k-1) latencies (and handshakes, above the eager threshold) relative to
// bulk delivery — the serial fraction the pipeline hides.
func TestDeliverOverlappedPipelines(t *testing.T) {
	n := &Network{Latency: 2, Bandwidth: 1, EagerThreshold: 4}
	post := []float64{10, 0}
	msgs := []Message{
		{From: 0, To: 1, Bytes: 8}, // rendezvous: 4 handshake applies
		{From: 0, To: 1, Bytes: 8},
		{From: 0, To: 1, Bytes: 8},
	}
	// Bulk: each message costs L + m/B + 2L = 2+8+4 = 14; arrivals 24, 38, 52.
	// Overlapped: handshake (start 10, done 14) then 8s injections back to
	// back — ends 22, 30, 38 — plus L: arrivals 24, 32, 40.
	bulk := n.Deliver(post, msgs)
	ov := n.DeliverOverlapped(post, msgs)
	wantBulk := []float64{24, 38, 52}
	wantOv := []float64{24, 32, 40}
	for i := range msgs {
		if !almost(bulk[i], wantBulk[i]) || !almost(ov[i], wantOv[i]) {
			t.Errorf("msg %d: bulk %g (want %g), overlapped %g (want %g)",
				i, bulk[i], wantBulk[i], ov[i], wantOv[i])
		}
	}
	// Last arrival saves (k-1)*(L + handshake) = 2*(2+4) = 12.
	if diff := bulk[2] - ov[2]; !almost(diff, 12) {
		t.Errorf("pipeline saving = %g, want 12", diff)
	}
}

// Property: overlapped arrivals never beat post + handshake + m/B + L for
// their own message, never exceed the bulk arrivals, and stay monotone
// (non-strictly: zero-byte messages inject nothing) per sender.
func TestDeliverOverlappedProperty(t *testing.T) {
	n := &Network{Latency: 2e-6, Bandwidth: 5e8, EagerThreshold: 4096}
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		post := []float64{1.0}
		msgs := make([]Message, len(sizes))
		for i, s := range sizes {
			msgs[i] = Message{From: 0, To: 0, Bytes: int64(s)}
		}
		bulk := n.Deliver(post, msgs)
		ov := n.DeliverOverlapped(post, msgs)
		prev := 0.0
		for i, a := range ov {
			floor := post[0] + n.HandshakeTime(msgs[i].Bytes) + float64(msgs[i].Bytes)/n.Bandwidth + n.Latency
			if a < floor-1e-12 || a > bulk[i]+1e-12 || a < prev-1e-12 {
				t.Logf("arrival %d = %g: floor %g, bulk %g, prev %g", i, a, floor, bulk[i], prev)
				return false
			}
			prev = a
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDeliverOverlappedPanicsOnBadRank(t *testing.T) {
	n := &Network{Latency: 1, Bandwidth: 1}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid sender")
		}
	}()
	n.DeliverOverlapped([]float64{0}, []Message{{From: 5, To: 0, Bytes: 1}})
}

// TestValidate: zero/negative Bandwidth used to yield Inf/negative
// MessageTime and negative Latency/EagerThreshold were silently accepted;
// all four must now be rejected with a clear error.
func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		n    Network
		want string
	}{
		{"zero bandwidth", Network{Latency: 1e-6}, "Bandwidth"},
		{"negative bandwidth", Network{Latency: 1e-6, Bandwidth: -1}, "Bandwidth"},
		{"inf bandwidth", Network{Latency: 1e-6, Bandwidth: math.Inf(1)}, "Bandwidth"},
		{"nan bandwidth", Network{Latency: 1e-6, Bandwidth: math.NaN()}, "Bandwidth"},
		{"negative latency", Network{Latency: -1e-6, Bandwidth: 1e9}, "Latency"},
		{"nan latency", Network{Latency: math.NaN(), Bandwidth: 1e9}, "Latency"},
		{"negative eager", Network{Latency: 1e-6, Bandwidth: 1e9, EagerThreshold: -1}, "EagerThreshold"},
	}
	for _, tc := range cases {
		err := tc.n.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.n)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
	good := []Network{
		{Latency: 0, Bandwidth: 1},
		{Latency: 1e-6, Bandwidth: 1e9, EagerThreshold: 65536},
	}
	for _, n := range good {
		if err := n.Validate(); err != nil {
			t.Errorf("Validate rejected valid %+v: %v", n, err)
		}
	}
}

// TestDeliverRejectsInvalidNetwork: the first exchange through a
// misconfigured network must fail loudly, not hand out Inf arrival times.
func TestDeliverRejectsInvalidNetwork(t *testing.T) {
	n := &Network{Latency: 1e-6, Bandwidth: 0}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for zero bandwidth")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "Bandwidth") {
			t.Fatalf("panic %v does not name Bandwidth", r)
		}
	}()
	n.Deliver([]float64{0}, []Message{{From: 0, To: 0, Bytes: 8}})
}

func TestDeliverPanicsOnBadRank(t *testing.T) {
	n := &Network{Latency: 1, Bandwidth: 1}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid sender")
		}
	}()
	n.Deliver([]float64{0}, []Message{{From: 5, To: 0, Bytes: 1}})
}

func TestReduceTime(t *testing.T) {
	n := &Network{Latency: 1, Bandwidth: 1e9}
	if n.ReduceTime(1, 100) != 0 {
		t.Error("single rank reduce should be free")
	}
	t2 := n.ReduceTime(2, 8)
	t8 := n.ReduceTime(8, 8)
	t9 := n.ReduceTime(9, 8)
	if !(t2 < t8 && t8 < t9) {
		t.Errorf("reduce times not increasing: %g %g %g", t2, t8, t9)
	}
	if steps := t8 / n.MessageTime(8); !almost(steps, 3) {
		t.Errorf("8-rank reduce = %g steps, want 3", steps)
	}
}

// Property: arrivals never precede post time plus one latency, and are
// monotone in per-sender order.
func TestDeliverProperty(t *testing.T) {
	n := &Network{Latency: 2e-6, Bandwidth: 5e8}
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		post := []float64{1.0}
		msgs := make([]Message, len(sizes))
		for i, s := range sizes {
			msgs[i] = Message{From: 0, To: 0, Bytes: int64(s)}
		}
		arr := n.Deliver(post, msgs)
		prev := post[0]
		for i, a := range arr {
			if a < post[0]+n.Latency || a <= prev {
				t.Logf("arrival %d = %g not serialised", i, a)
				return false
			}
			prev = a
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
