package cmdutil

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestProfileFlagsWriteFiles: -cpuprofile/-memprofile/-exectrace parse, and
// Start/stop leave a non-empty file at each path.
func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem, exec := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof"), filepath.Join(dir, "exec.trace")
	var p ProfileFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	p.Register(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem, "-exectrace", exec}); err != nil {
		t.Fatal(err)
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem, exec} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty (err %v)", path, err)
		}
	}

	if _, err := (&ProfileFlags{CPU: filepath.Join(dir, "no-such-dir", "cpu.prof")}).Start(); err == nil {
		t.Error("Start accepted an uncreatable -cpuprofile path")
	}

	if _, err := (&ProfileFlags{CPU: cpu, Exec: filepath.Join(dir, "no-such-dir", "exec.trace")}).Start(); err == nil {
		t.Error("Start accepted an uncreatable -exectrace path")
	} else if stop, err := (&ProfileFlags{CPU: cpu}).Start(); err != nil {
		t.Errorf("the refused Start left the CPU profile running: %v", err)
	} else if err := stop(); err != nil {
		t.Error(err)
	}

	// No flag set: nothing to start, nothing to write.
	stop, err = (&ProfileFlags{}).Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
