package cluster

import (
	"cmp"
	"slices"
	"testing"

	"op2ca/internal/hydra"
	"op2ca/internal/leakcheck"
	"op2ca/internal/mesh"
	"op2ca/internal/mgcfd"
	"op2ca/internal/partition"
)

// TestSchedulesAreExactSize: on two of halo's golden layout shapes — MG-CFD
// on 64 KWay ranks and Hydra on 8 RIB ranks, both at depth 2 — every schedule
// the apps' runs memoise, and one per dat and one for all dats at full depth,
// grouped and not, is made at its exact size: msgs and the copy list of all
// ranks have len == cap. And the copies pair up with the messages, every
// import claimed once.
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
			scheds["grouped "+d.Name] = lay.buildSchedule([]exchangeSpec{sp}, true, nil)
			scheds["per-dat "+d.Name] = lay.buildSchedule([]exchangeSpec{sp}, false, nil)
		}
		scheds["grouped all"] = lay.buildSchedule(all, true, nil)
		scheds["per-dat all"] = lay.buildSchedule(all, false, nil)
		for name, s := range scheds {
			checkExactSchedule(t, tc.name+" "+name, s)
		}
	}
}

// checkExactSchedule checks one schedule's sizes and that its copy list
// pairs up with its messages: each receiver's copies land in disjoint windows
// of its storage, no run of a sender's exported locals is copied twice for one dat, and
// the copied bytes are the messages' bytes, per sender and per receiver —
// every import claimed exactly once.
func checkExactSchedule(t *testing.T, label string, s *exchangeSchedule) {
	t.Helper()
	if len(s.msgs) != cap(s.msgs) {
		t.Errorf("%s: %d messages in room for %d", label, len(s.msgs), cap(s.msgs))
	}
	if len(s.copies) != cap(s.copies) {
		t.Errorf("%s: %d copy segments in room for %d", label, len(s.copies), cap(s.copies))
	}
	type window struct{ rank, dat, lo, hi int32 }
	disjoint := func(what string, ws []window) {
		slices.SortFunc(ws, func(a, b window) int {
			return cmp.Or(cmp.Compare(a.rank, b.rank), cmp.Compare(a.dat, b.dat), cmp.Compare(a.lo, b.lo))
		})
		for i := 1; i < len(ws); i++ {
			if p, w := ws[i-1], ws[i]; p.rank == w.rank && p.dat == w.dat && w.lo < p.hi {
				t.Fatalf("%s: rank %d's %s windows %v and %v of dat %d overlap", label, w.rank, what, p, w, w.dat)
			}
		}
	}
	nranks := len(s.copyAt) - 1
	sent, recv := make([]int64, nranks), make([]int64, nranks)
	var dsts, srcs []window
	for r := range nranks {
		for _, c := range s.copies[s.copyAt[r]:s.copyAt[r+1]] {
			bytes := 8 * int64(c.n) * int64(c.dim)
			sent[c.from] += bytes
			recv[r] += bytes
			dsts = append(dsts, window{int32(r), c.dat, c.dstStart, c.dstStart + c.n*c.dim})
			srcs = append(srcs, window{c.from, c.dat, c.exportLo, c.exportLo + c.n})
		}
	}
	disjoint("import", dsts)
	disjoint("export", srcs)
	if !slices.Equal(sent, s.sendBytes) || !slices.Equal(recv, s.recvBytes) {
		t.Errorf("%s: copies move %v bytes out and %v in, the messages %v and %v",
			label, sent, recv, s.sendBytes, s.recvBytes)
	}
}

// TestDirectExchangeUnderRace (run under -race): an exchange is one fork in
// which every rank copies its imports straight from the owners' storage, so
// each rank reads what others own while they write their own halo copies. On
// the two golden shapes of TestSchedulesAreExactSize, under every execution
// policy, a Parallel backend forced to four workers ends in the state and
// checksum of a serial one, bit for bit.
func TestDirectExchangeUnderRace(t *testing.T) {
	defer leakcheck.Check(t)()
	mg := mesh.RotorForNodes(6000)
	mgH := mesh.NewHierarchy(mg, 2, true)
	mgAssign := partition.KWay(mg.NodeAdjacency(), 64)
	hy := mesh.RotorForNodes(4200)
	hyAssign := partition.RIB(hy.Coords, 3, 8)
	apps := map[string]func(snapMode) snapRun{
		"mgcfd-kway64": func(mode snapMode) snapRun {
			app := mgcfd.New(mgH)
			syn := mgcfd.NewSynthetic(app)
			cfg := Config{Prog: app.Prog, Primary: app.Primary, Assign: mgAssign, NParts: 64,
				Depth: 2, MaxChainLen: 4, CA: true}
			mode.mut(&cfg)
			return snapRun{cfg: cfg,
				init: func(b *Backend) { app.Init(b) },
				step: func(b *Backend) { syn.Run(b, 2, mode.chained); app.Cycle(b) }}
		},
		"hydra-rib8": func(mode snapMode) snapRun { return snapHydra(hy, hyAssign, 8, mode, false) },
	}
	for name, mk := range apps {
		for _, mode := range snapModes {
			label := name + "/" + mode.name
			run := func(parallel bool) *Backend {
				r := mk(mode)
				r.cfg.Parallel = parallel
				b, err := New(r.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if parallel {
					b.installPool(forcedWorkers)
				}
				r.init(b)
				r.step(b)
				r.step(b)
				return b
			}
			serial, par := run(false), run(true)
			compareBackends(t, label, par, serial)
			if p, s := par.ChecksumDats(), serial.ChecksumDats(); p != s {
				t.Errorf("%s: checksum %s with four workers, %s serial", label, p, s)
			}
			par.Close()
			serial.Close()
		}
	}
}
