package cmdutil

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestProfileFlagsWriteFiles: -cpuprofile/-memprofile parse, and Start/stop
// leave a non-empty file at each path.
func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	var p ProfileFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	p.Register(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty (err %v)", path, err)
		}
	}

	if _, err := (&ProfileFlags{CPU: filepath.Join(dir, "no-such-dir", "cpu.prof")}).Start(); err == nil {
		t.Error("Start accepted an uncreatable -cpuprofile path")
	}

	// Neither flag set: nothing to start, nothing to write.
	stop, err = (&ProfileFlags{}).Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
