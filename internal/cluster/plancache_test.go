package cluster

import (
	"bytes"
	"testing"

	"op2ca/internal/machine"
	"op2ca/internal/mesh"
	"op2ca/internal/obs"
	"op2ca/internal/partition"
)

// TestNoGroupedMsgsNeighbourCount: MaxNeighbours is the p term of
// Equation (3) — the largest number of *distinct* neighbours any rank sends
// to — so it must not depend on how many messages each neighbour receives.
// With NoGroupedMsgs a chain sends several per-dat messages to the same
// neighbour; counting raw messages inflates p and corrupts the model
// prediction the model-check report compares against.
func TestNoGroupedMsgsNeighbourCount(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	assign := partition.KWay(m.NodeAdjacency(), 5)
	run := func(noGroup bool) *ChainStats {
		a := newMiniApp(m)
		a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
		b, err := New(Config{
			Prog: a.p, Primary: a.nodes, Assign: assign, NParts: 5,
			Depth: 2, MaxChainLen: 4, CA: true, NoGroupedMsgs: noGroup,
			Machine: machine.ARCHER2(),
		})
		if err != nil {
			t.Fatal(err)
		}
		a.run(b, 2, true)
		cs := b.Stats().Chains["synth"]
		if cs == nil || cs.CAExecutions == 0 {
			t.Fatalf("noGroup=%v: chain did not run with CA: %+v", noGroup, cs)
		}
		return cs
	}
	grouped := run(false)
	ungrouped := run(true)
	if ungrouped.Msgs <= grouped.Msgs {
		t.Fatalf("ungrouped chain sent %d messages, grouped %d; disabling grouping should send more",
			ungrouped.Msgs, grouped.Msgs)
	}
	if ungrouped.MaxNeighbours != grouped.MaxNeighbours {
		t.Errorf("MaxNeighbours = %d with NoGroupedMsgs, %d grouped; the neighbour count must not depend on message grouping",
			ungrouped.MaxNeighbours, grouped.MaxNeighbours)
	}
}

// TestPlanCacheEquivalence: the inspect-once/execute-many plan cache is a
// pure execution optimisation — a backend re-executing cached chains must
// produce bit-identical clocks, dats, stats and traces to one that re-runs
// inspection and rebuilds its exchange schedules every execution, across
// the knob combinations that shape the exchange.
func TestPlanCacheEquivalence(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	assign := partition.KWay(m.NodeAdjacency(), 5)
	cases := []struct {
		name  string
		tweak func(*Config)
	}{
		{"ca-grouped", func(c *Config) {}},
		{"ca-nogroupedmsgs", func(c *Config) { c.NoGroupedMsgs = true }},
		{"ca-gpudirect", func(c *Config) { c.GPUDirect = true; c.Machine = machine.Cirrus() }},
	}
	type result struct {
		clocks []float64
		dats   map[string][]float64
		stats  string
		trace  []byte
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(noCache bool) (result, *Backend) {
				tr := obs.New()
				a := newMiniApp(m)
				a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
				cfg := Config{
					Prog: a.p, Primary: a.nodes, Assign: assign, NParts: 5,
					Depth: 3, MaxChainLen: 5, CA: true, Machine: machine.ARCHER2(),
					Tracer: tr, NoPlanCache: noCache,
				}
				tc.tweak(&cfg)
				b, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				a.run(b, 4, true)
				var buf bytes.Buffer
				res := result{
					clocks: append([]float64(nil), b.Clocks()...),
					dats:   map[string][]float64{"res": b.GatherDat(a.res), "flux": b.GatherDat(a.flux)},
					stats:  b.Stats().String(),
				}
				if err := tr.WriteChromeTrace(&buf); err != nil {
					t.Fatal(err)
				}
				res.trace = buf.Bytes()
				return res, b
			}
			cached, cb := run(false)
			uncached, ub := run(true)

			if hits, _, _ := cb.PlanCacheStats(); hits == 0 {
				t.Error("cached backend recorded no plan-cache hits over repeated executions")
			}
			if hits, misses, _ := ub.PlanCacheStats(); hits != 0 || misses != 0 {
				t.Errorf("NoPlanCache backend touched the cache: hits=%d misses=%d", hits, misses)
			}
			for i := range cached.clocks {
				if cached.clocks[i] != uncached.clocks[i] {
					t.Fatalf("rank %d clock differs: cached %v, uncached %v", i, cached.clocks[i], uncached.clocks[i])
				}
			}
			compareExact(t, tc.name, cached.dats, uncached.dats)
			if cached.stats != uncached.stats {
				t.Errorf("stats differ:\ncached:\n%s\nuncached:\n%s", cached.stats, uncached.stats)
			}
			if !bytes.Equal(cached.trace, uncached.trace) {
				t.Error("chrome trace output differs between cached and uncached runs")
			}
		})
	}
}

// TestPlanCacheReusesPlans: repeated executions of the same chain hit the
// cache; a chain with a different loop structure misses and gets its own
// entry.
func TestPlanCacheReusesPlans(t *testing.T) {
	m := mesh.Rotor(6, 5, 4)
	a := newMiniApp(m)
	a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
	b, err := New(Config{
		Prog: a.p, Primary: a.nodes, Assign: partition.Block(m.NNodes, 3), NParts: 3,
		Depth: 2, MaxChainLen: 4, CA: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.run(b, 5, true)
	hits, misses, _ := b.PlanCacheStats()
	if misses != 1 {
		t.Errorf("5 executions of one chain: misses = %d, want 1", misses)
	}
	if hits != 4 {
		t.Errorf("5 executions of one chain: hits = %d, want 4", hits)
	}
}
