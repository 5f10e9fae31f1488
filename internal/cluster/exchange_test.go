package cluster

import (
	"cmp"
	"slices"
	"testing"

	"op2ca/internal/hydra"
	"op2ca/internal/mesh"
	"op2ca/internal/mgcfd"
	"op2ca/internal/partition"
)

// TestSchedulesAreExactSize: on two of halo's golden layout shapes — MG-CFD
// on 64 KWay ranks and Hydra on 8 RIB ranks, both at depth 2 — every schedule
// the apps' runs memoise, and one per dat and one for all dats at full depth,
// grouped and not, is made at its exact size: msgs and every rank's pack and
// unpack lists have len == cap. And the slices pair up: a rank packs exactly
// its slab window, and the receivers' unpacks tile the slab, every value
// claimed once.
func TestSchedulesAreExactSize(t *testing.T) {
	mg := mesh.RotorForNodes(6000)
	mgApp := mgcfd.New(mesh.NewHierarchy(mg, 2, true))
	hy := mesh.RotorForNodes(4200)
	hyApp := hydra.New(hy)
	for _, tc := range []struct {
		name string
		cfg  Config
		run  func(b *Backend)
	}{
		{"mgcfd-kway64", Config{Prog: mgApp.Prog, Primary: mgApp.Primary,
			Assign: partition.KWay(mg.NodeAdjacency(), 64), NParts: 64, Depth: 2, MaxChainLen: 2},
			func(b *Backend) { mgApp.Init(b); mgApp.Cycle(b) }},
		{"hydra-rib8", Config{Prog: hyApp.Prog, Primary: hyApp.Nodes,
			Assign: partition.RIB(hy.Coords, 3, 8), NParts: 8, Depth: 2, MaxChainLen: 6,
			CA: true, Chains: hydra.MustPaperConfig()},
			func(b *Backend) { hyApp.RunSetup(b, true); hyApp.RunIteration(b, true) }},
	} {
		lay, err := NewLayouts(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg := tc.cfg
		cfg.Layouts = lay
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tc.run(b)
		b.Close()
		if len(lay.schedules) == 0 {
			t.Fatalf("%s: the run memoised no schedule", tc.name)
		}
		scheds := map[string]*exchangeSchedule{}
		for fp, s := range lay.schedules {
			scheds["run "+fp] = s
		}
		var all []exchangeSpec
		for _, d := range cfg.Prog.Dats {
			sp := exchangeSpec{dat: d, execDepth: cfg.Depth, nonexecDepth: cfg.Depth}
			all = append(all, sp)
			scheds["grouped "+d.Name] = lay.buildSchedule([]exchangeSpec{sp}, true)
			scheds["per-dat "+d.Name] = lay.buildSchedule([]exchangeSpec{sp}, false)
		}
		scheds["grouped all"] = lay.buildSchedule(all, true)
		scheds["per-dat all"] = lay.buildSchedule(all, false)
		for name, s := range scheds {
			checkExactSchedule(t, tc.name+" "+name, s)
		}
	}
}

// checkExactSchedule checks one schedule's sizes and that its pack and
// unpack lists pair up.
func checkExactSchedule(t *testing.T, label string, s *exchangeSchedule) {
	t.Helper()
	if len(s.msgs) != cap(s.msgs) {
		t.Errorf("%s: %d messages in room for %d", label, len(s.msgs), cap(s.msgs))
	}
	type window struct{ off, nvals int32 }
	var windows []window
	for r := range s.pack {
		if len(s.pack[r]) != cap(s.pack[r]) || len(s.unpack[r]) != cap(s.unpack[r]) {
			t.Errorf("%s: rank %d packs %d of %d and unpacks %d of %d", label, r,
				len(s.pack[r]), cap(s.pack[r]), len(s.unpack[r]), cap(s.unpack[r]))
		}
		packed := 0
		for _, seg := range s.pack[r] {
			packed += len(seg.locals) * int(seg.dim)
		}
		if want := int(s.slabLo[r+1] - s.slabLo[r]); packed != want {
			t.Errorf("%s: rank %d packs %d values into a window of %d", label, r, packed, want)
		}
		for _, seg := range s.unpack[r] {
			windows = append(windows, window{seg.off, seg.nvals})
		}
	}
	slices.SortFunc(windows, func(a, b window) int { return cmp.Compare(a.off, b.off) })
	at := int32(0)
	for _, w := range windows {
		if w.off != at {
			t.Fatalf("%s: an unpack starts at slab offset %d, want %d", label, w.off, at)
		}
		at += w.nvals
	}
	if want := s.slabLo[len(s.pack)]; at != want {
		t.Errorf("%s: unpacks claim %d slab values, senders pack %d", label, at, want)
	}
}
