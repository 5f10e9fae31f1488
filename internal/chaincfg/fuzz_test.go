package chaincfg_test // external: internal/hydra, whose configuration seeds the corpus, imports chaincfg

import (
	"reflect"
	"testing"

	"op2ca/internal/chaincfg"
	"op2ca/internal/hydra"
)

// FuzzParse: the chain configuration is a user's file (-chains, a JobSpec's
// chains). Parse never panics, and a configuration it accepts renders
// (String) to text that parses back to an equal configuration.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		hydra.MustPaperConfig().String(),
		"\n# Hydra loop-chains\nchain weight maxhe=2\n  loop sumbwts he=2\n  loop periodsym he=1\nchain period maxhe=2\nchain gradl disable\n",
		"", "# only comments\n\n  \n",
		"chain a auto\nloop x he=1\nchain b maxhe=2\n",
		"chain a overlap\nloop x he=1\nchain b auto overlap\nchain c maxhe=2\n",
		"chain a maxretries=3 maxhe=+2\r\n\tloop x he=007\n",
		"chain # maxhe=1\nloop loop\nloop chain\n",
		// The table tests' rejects.
		"chain a\nchain b\nchain a\n", "chain a\nloop x he=1\nloop y he=2\nloop x he=2\n",
		"chain a auto disable\n", "loop x\n", "chain\n", "chain a maxhe=0\n", "chain a bogus\n",
		"chain a\nloop\n", "chain a\nloop x he=z\n", "chain a\nloop x bogus\n", "bogus\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		cfg, err := chaincfg.ParseString(text)
		if err != nil {
			return
		}
		again, err := chaincfg.ParseString(cfg.String())
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", text, cfg.String(), err)
		}
		if !reflect.DeepEqual(cfg, again) {
			t.Errorf("%q renders as %q, which parses to a different configuration:\n got %+v\nwant %+v",
				text, cfg.String(), again, cfg)
		}
	})
}
