package main

import (
	"fmt"
	"runtime"
)

// endToEnd accumulates what one untraced run measured on both clocks. Host
// times are in calibrated units (see hostClock).
type endToEnd struct {
	clock  *hostClock
	setupS []float64 // one entry per set-up
	opMS   []float64 // host time of every timed op
	rawMS  []float64 // the same on the raw clock, for the noise report
	wallS  float64   // host time of the timed phase
	// virtS is the virtual time the backends advanced over virtOps ops.
	// Both cover whole cycles only (epochs, sweep passes, job cycles), so
	// the quotient does not depend on where the clock stopped the run.
	virtS   float64
	virtOps int
	// op2VirtS and caVirtS total the virtual time of the workload's matched
	// OP2 and CA runs.
	op2VirtS, caVirtS float64
	allocBytes        uint64
	heapLive          uint64 // max over sample points
	failed            int
	notes             []string // failed checks, for the log
}

// heapSampleOps is the op count at which the live heap is sampled, besides
// after set-up. A fixed count, so what a run retains per op reads the same
// however many ops the run got through before its time was up.
const heapSampleOps = 100

// sampleHeap records the live heap, less the calibrator's fixed share.
func (e *endToEnd) sampleHeap() {
	if h := heapLive() - e.clock.cal.bytes(); h > e.heapLive {
		e.heapLive = h
	}
}

// fail records a failed output check. Every op of a run whose output is
// wrong counts as failed: its timings measure the wrong computation.
func (e *endToEnd) fail(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
	e.failed = len(e.opMS)
}

// timeOp runs one op and records its host time.
func (e *endToEnd) timeOp(f func()) { e.addOp(e.clock.time("", f), e.clock.lastRaw) }

func (e *endToEnd) addOp(calibrated, raw float64) {
	e.opMS, e.rawMS = append(e.opMS, calibrated), append(e.rawMS, raw)
}

// timeSetup runs one set-up and records its host time.
func (e *endToEnd) timeSetup(f func()) { e.setupS = append(e.setupS, e.clock.time("", f)/1e3) }

// result is one run of one workload in one mode: the contract's result line
// plus the sample counts behind its percentiles.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples gives the count behind each percentile; P90At is the
	// percentile op_ms_p90 actually reports (lower on short runs).
	Samples map[string]int `json:"samples,omitempty"`
	P90At   float64        `json:"p90_at,omitempty"`
	// RawOpMS is the median op time on the raw host clock; CalibMS the median
	// time of the calibration kernel during the run.
	RawOpMS float64  `json:"raw_op_ms_p50,omitempty"`
	CalibMS float64  `json:"calib_ms_p50,omitempty"`
	Notes   []string `json:"notes,omitempty"`
}

func (e *endToEnd) result() *result {
	m := newMetricSet(endToEndDefs)
	n := len(e.opMS)
	m.set("setup_s", median(e.setupS))
	m.set("ops_per_s", ratio(float64(n), e.wallS))
	m.set("op_ms_p50", median(e.opMS))
	p90At, p90 := highPercentile(e.opMS, 0.9)
	m.set("op_ms_p90", p90)
	m.set("virt_ms_per_op", ratio(e.virtS*1e3, float64(e.virtOps)))
	m.set("ca_speedup_x", ratio(e.op2VirtS, e.caVirtS))
	m.set("alloc_kb_per_op", ratio(float64(e.allocBytes)/1e3, float64(n)))
	m.set("heap_live_mb", float64(e.heapLive)/1e6)
	return &result{
		Correct: e.failed == 0 && n > 0, Attempted: n, Failed: e.failed,
		Metrics: m.export(), P90At: p90At, Notes: e.notes,
		RawOpMS: median(e.rawMS), CalibMS: median(e.clock.calMS),
		Samples: map[string]int{"setup_s": len(e.setupS), "op_ms": n, "virt_ms_per_op": e.virtOps},
	}
}

// heapLive forces two collections (the second empties the sync.Pool victim
// caches the first one filled) and returns the bytes still reachable.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
