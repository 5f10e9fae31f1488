package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// environment says what machine a results file was measured on; -compare
// notes when two files come from different ones.
type environment struct {
	NProc      int     `json:"host.nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	RingDir    string  `json:"ring_dir"` // where serve-mixed keeps checkpoint rings
	CalibMS    float64 `json:"host.calib_ms_p50"`
}

func environmentOf(ringDir string) environment {
	var calib []float64
	c := newCalibrator(calibElems)
	for i := 0; i < 5; i++ {
		calib = append(calib, c.run())
	}
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), RingDir: ringDir, CalibMS: median(calib),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscan(strings.TrimSpace(rest), &kb)
			return kb / 1e3
		}
	}
	return 0
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env  environment `json:"env"`
	Runs []*result   `json:"runs"`
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// print lists every metric of the run by name with its unit, and the sample
// counts behind the percentiles.
func (r *result) print(w io.Writer) {
	mode, defs := "end-to-end, tracing off", endToEndDefs
	if r.Trace {
		mode, defs = "per-layer, traced", perLayerDefs
	}
	fmt.Fprintf(w, "== %s seed %d (%s): %d ops attempted, %d failed\n", r.Workload, r.Seed, mode, r.Attempted, r.Failed)
	fmt.Fprintf(w, "host times are calibrated: raw op p50 %.3f ms, calibration kernel p50 %.3f ms (nominal %.0f)\n",
		r.RawOpMS, r.CalibMS, calibNominalMS)
	for _, d := range defs {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "%-30s %14.6g %-6s", d.Name, m.Value, m.Unit)
		switch d.Name {
		case "setup_s":
			fmt.Fprintf(w, " median of %d set-ups", r.Samples["setup_s"])
		case "op_ms_p50":
			fmt.Fprintf(w, " %d samples", r.Samples["op_ms"])
		case "op_ms_p90":
			fmt.Fprintf(w, " p%.1f of %d samples", 100*r.P90At, r.Samples["op_ms"])
		case "virt_ms_per_op":
			fmt.Fprintf(w, " over %d ops", r.Samples["virt_ms_per_op"])
		case "ca_speedup_x":
			fmt.Fprintf(w, " ca_gain_pct %.2f", 100*(1-ratio(1, m.Value)))
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "CHECK FAILED:", n)
	}
}
