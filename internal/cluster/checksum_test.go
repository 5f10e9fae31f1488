package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
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
