package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"op2ca/internal/mesh"
	"op2ca/internal/mgcfd"
	"op2ca/internal/partition"
)

// TestChecksumDats pins ChecksumDats three ways: against strings captured
// before it gathered into a kept buffer and hashed by blocks, against the
// definition (FNV-1a over each dat's name and gathered little-endian values,
// one value per Write), and on allocation — a call on a backend that has
// checksummed before allocates the hasher, the block and the string, nothing
// that grows with a dat. MemStats count the whole process, so the bound is on
// the mean of many calls: what another goroutine allocates meanwhile (a
// worker pool winding down, the runtime itself) divides away, and the outcome
// does not depend on how many cores there are to run it on.
func TestChecksumDats(t *testing.T) {
	want := map[string]string{"mgcfd": "bf8c233b485ec369", "hydra": "6f2bfa53125d0381"}
	for name, mk := range snapApps() {
		if want[name] == "" {
			continue // hydra-underreach: same dats as hydra
		}
		run := mk(snapModes[1]) // ca
		b, err := New(run.cfg)
		if err != nil {
			t.Fatal(err)
		}
		run.init(b)
		run.step(b)
		run.step(b)
		got := b.ChecksumDats()
		if got != want[name] {
			t.Errorf("%s: checksum %s, want %s", name, got, want[name])
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, d := range run.cfg.Prog.Dats {
			h.Write([]byte(d.Name))
			for _, v := range b.GatherDat(d) {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		if ref := fmt.Sprintf("%016x", h.Sum64()); got != ref {
			t.Errorf("%s: checksum %s, the definition gives %s", name, got, ref)
		}
		const calls = 200
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < calls; i++ {
			b.ChecksumDats()
		}
		runtime.ReadMemStats(&m1)
		if n, bytes := (m1.Mallocs-m0.Mallocs)/calls, (m1.TotalAlloc-m0.TotalAlloc)/calls; n > 4 || bytes > 1024 {
			t.Errorf("%s: a repeated ChecksumDats makes %d allocations of %d bytes, want a handful independent of the data",
				name, n, bytes)
		}
		b.Close()
	}
}

// BenchmarkChecksumDats times one ChecksumDats of an initialised MG-CFD
// backend, on 8 ranks of 24 000 nodes and on 64 ranks of 6 000, the shapes
// of the mgcfd-compute and mgcfd-ranks workloads.
func BenchmarkChecksumDats(b *testing.B) {
	for _, tc := range []struct{ nodes, ranks int }{{24000, 8}, {6000, 64}} {
		b.Run(fmt.Sprintf("ranks=%d", tc.ranks), func(b *testing.B) {
			m := mesh.RotorForNodes(tc.nodes)
			app := mgcfd.New(mesh.NewHierarchy(m, 2, true))
			be, err := New(Config{Prog: app.Prog, Primary: app.Primary,
				Assign: partition.KWay(m.NodeAdjacency(), tc.ranks), NParts: tc.ranks, Depth: 2, CA: true})
			if err != nil {
				b.Fatal(err)
			}
			defer be.Close()
			app.Init(be)
			for b.Loop() {
				be.ChecksumDats()
			}
		})
	}
}

// TestChecksumBorrowsNothing: ChecksumDats streams from the dats, so a lent
// backend that checksummed borrowed one slab, its storage, and Close gives
// back exactly that one.
func TestChecksumBorrowsNothing(t *testing.T) {
	run := snapApps()["hydra"](snapModes[1])
	lender := &poisonLender{}
	run.cfg.Slabs = lender
	b, err := New(run.cfg)
	if err != nil {
		t.Fatal(err)
	}
	run.init(b)
	run.step(b)
	want := b.ChecksumDats()
	if got := b.ChecksumDats(); got != want {
		t.Errorf("a second checksum %s, the first %s", got, want)
	}
	if g := lender.gets.Load(); g != 1 {
		t.Errorf("a lent backend that stepped and checksummed borrowed %d slabs, want its storage alone", g)
	}
	b.Close()
	if g, p := lender.gets.Load(), lender.puts.Load(); g != 1 || p != 1 || lender.Stats().LentBytes != 0 {
		t.Errorf("after Close: %d slabs borrowed, %d returned, %d bytes out; want the one back",
			g, p, lender.Stats().LentBytes)
	}
}
