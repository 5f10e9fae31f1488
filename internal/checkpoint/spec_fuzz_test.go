package checkpoint

import (
	"fmt"
	"testing"
)

// FuzzParseSpec: the -checkpoint grammar takes text from a flag. ParseSpec
// never panics; a spec it accepts is enabled, with a positive period and a
// non-negative generation count; and, written back in the grammar, it parses
// to an equal spec.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"every=5,path=ck.bin", "path=x, every=1", "every=1,path=x,keep=3", "every=1,path=x,", ",every=1,,path=a=b",
		// TestParseSpec's rejects.
		"", "every=5", "path=x", "every=0,path=x", "every=a,path=x", "bogus=1", "every",
		"every=-2,path=x", "every=1,path=x,keep=-1", "every=1,every=2,path=x", "every=1,path=x,path=y",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			return
		}
		if !s.Enabled() || s.Every < 1 || s.Keep < 0 {
			t.Errorf("%q: accepted %+v", in, s)
		}
		out := fmt.Sprintf("every=%d,path=%s", s.Every, s.Path)
		if s.Keep != 0 {
			out += fmt.Sprintf(",keep=%d", s.Keep)
		}
		if back, err := ParseSpec(out); err != nil || back != s {
			t.Errorf("%q is %+v, written back as %q it parses to %+v, %v", in, s, out, back, err)
		}
	})
}
