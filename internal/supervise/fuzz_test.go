package supervise_test

import (
	"math"
	"testing"

	"op2ca/internal/supervise"
)

// FuzzParseSpec: the -supervise grammar takes text from flags and JobSpecs.
// ParseSpec never panics; a spec it accepts holds a non-negative budget and
// finite, non-negative durations; and the spec's String() parses back to an
// equal spec.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"", " ", "on", "on,", "budget=3", "on,budget=0,backoff=2.5,watchdog=40", "backoff=-0", "watchdog=1e-320",
		// TestParseSpec's rejects.
		"off", "budget=-1", "backoff=x", "backoff=-1", "watchdog=0", "bogus=1",
		"backoff=NaN", "watchdog=NaN", "backoff=Inf", "watchdog=Inf", "budget=1,budget=2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := supervise.ParseSpec(in)
		if err != nil {
			return
		}
		finite := func(v float64) bool { return v >= 0 && !math.IsInf(v, 0) }
		if s.Budget < 0 || !finite(s.Backoff) || !finite(s.Watchdog) {
			t.Errorf("%q: accepted %+v", in, s)
		}
		if back, err := supervise.ParseSpec(s.String()); err != nil || back != s {
			t.Errorf("%q renders as %q, which parses to %+v, %v; want %+v", in, s.String(), back, err, s)
		}
	})
}
