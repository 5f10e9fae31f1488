package bench

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// FuzzParseThresholds: the -thresholds grammar takes text from a flag, and a
// value it lets through decides whether the regression gate can fail at all.
// ParseThresholds never panics; every tolerance it accepts is finite and
// non-negative (NaN or Inf would switch the gate off: no delta exceeds them);
// and, written back in the grammar, the thresholds parse to equal ones.
func FuzzParseThresholds(f *testing.F) {
	for _, seed := range []string{
		"", " ", "default=2%,table2=5%,fig10=0.001", "default=0%", "a=1e-320,", " a = 5 % ", "=1",
		// TestParseThresholds' rejects.
		"nonsense", "a=%", "a=-1", "a=x%", "default=NaN", "a=nan%", "a=Inf", "a=+inf%",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		th, err := ParseThresholds(spec)
		if err != nil {
			return
		}
		out := fmt.Sprintf("default=%g", th.Default)
		for name, v := range th.Tables {
			if !(v >= 0) || math.IsInf(v, 0) {
				t.Errorf("%q: accepted tolerance %g for table %q", spec, v, name)
			}
			out += fmt.Sprintf(",%s=%g", name, v)
		}
		if !(th.Default >= 0) || math.IsInf(th.Default, 0) {
			t.Errorf("%q: accepted default tolerance %g", spec, th.Default)
		}
		if back, err := ParseThresholds(out); err != nil || !reflect.DeepEqual(back, th) {
			t.Errorf("%q is %+v, written back as %q it parses to %+v, %v", spec, th, out, back, err)
		}
	})
}
