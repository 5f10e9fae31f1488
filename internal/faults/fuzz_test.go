package faults

import (
	"math"
	"reflect"
	"testing"
)

// FuzzParse: the fault grammar takes text from flags and JobSpecs. Parse
// never panics; a plan it accepts holds only finite numbers in range; and the
// plan's String() parses back to an equal plan.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"", " ", ",", "drop=0.05,seed=1,",
		"drop=0.01,corrupt=0.002,delay=5x@0.01,straggler=rank3:10x,seed=42,maxretries=6",
		"straggler=rank0:2x,straggler=rank5:3x,seed=9",
		"crash=rank0@120,crash=rank2@400,seed=1",
		"delay=5x@0", "drop=-0", "drop=1e-320", "seed=0",
		"straggler=rank4294967296:2x", "crash=rank2147483648@1",
		// TestParseErrors' rejects.
		"drop=1.5", "drop=NaN", "delay=NaNx@0.1", "straggler=rank3:Infx", "delay=0.5x@0.1",
		"straggler=rank-1:2x", "maxretries=0", "bogus=1", "dangling", "drop=0.1,drop=0.2",
		"crash=rank0@5,crash=rank1@5",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		prob := func(name string, v float64) {
			if !(v >= 0 && v <= 1) {
				t.Errorf("%q: accepted %s probability %g", spec, name, v)
			}
		}
		factor := func(name string, v float64) {
			if !(v >= 1) || math.IsInf(v, 0) {
				t.Errorf("%q: accepted %s factor %g", spec, name, v)
			}
		}
		prob("drop", p.Drop)
		prob("corrupt", p.Corrupt)
		prob("delay", p.DelayProb)
		factor("delay", p.DelayFactor)
		for r, s := range p.Stragglers {
			factor("straggler", s)
			if r < 0 {
				t.Errorf("%q: accepted straggler rank %d", spec, r)
			}
		}
		for _, c := range p.Crashes {
			if c.Rank < 0 {
				t.Errorf("%q: accepted crash rank %d", spec, c.Rank)
			}
		}
		if p.MaxRetries < 0 {
			t.Errorf("%q: accepted maxretries %d", spec, p.MaxRetries)
		}
		q, err := Parse(p.String())
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", spec, p.String(), err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Errorf("%q renders as %q, which parses to a different plan:\n got %+v\nwant %+v", spec, p.String(), q, p)
		}
	})
}
