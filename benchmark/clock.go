package main

import (
	"sync"
	"time"
)

// hostClock times calls into the program on the host clock, in calibrated
// milliseconds. This sandbox shares its memory system with other tenants:
// identical code runs up to 1.5x slower for tenths of a second or minutes at
// a time, which no run of a fixed length averages out. Whatever slows the
// program slows the benchmark's own fixed calibration kernel by nearly the
// same factor, so the kernel runs after every timed call and the call's time
// is divided by the mean of the kernel's runs before and after it. One
// calibrated millisecond is a host millisecond on a machine that runs the
// kernel in exactly calibNominalMS, which is what this sandbox takes when it
// is quiet. Between two runs of this benchmark it compares the way a
// millisecond would on a quiet machine. Raw times are kept beside the
// calibrated ones.
type hostClock struct {
	sampler
	rec     *recorder // spans stay on the raw clock
	lastRaw float64   // raw milliseconds of the most recent timed call
	calMS   []float64 // the kernel time every call was scaled by
}

const calibNominalMS = 16.0

// sampler runs the calibration kernel around timed calls on one goroutine.
type sampler struct {
	cal *calibrator
	k   float64   // the kernel's latest time
	end time.Time // when that run ended
}

// after returns the kernel time to scale a call by that took raw
// milliseconds and has just returned: the mean of the run that preceded the
// call and a new one. Calls that follow the last run within 5 ms reuse it;
// a preceding run more than 50 ms before the call started is too old to
// bracket it.
func (s *sampler) after(raw float64) float64 {
	gap := ms(time.Since(s.end))
	if s.k != 0 && gap < 5 {
		return s.k
	}
	before := s.k
	s.k, s.end = s.cal.run(), time.Now()
	if before != 0 && gap-raw < 50 {
		return (before + s.k) / 2
	}
	return s.k
}

// time runs f inside a span and returns its calibrated milliseconds.
func (h *hostClock) time(name string, f func()) float64 {
	id := h.rec.begin(name)
	t0 := time.Now()
	f()
	raw := ms(time.Since(t0))
	h.rec.end(id)
	return h.scale(raw)
}

// scale calibrates a raw time that has just been measured.
func (h *hostClock) scale(raw float64) float64 {
	k := h.after(raw)
	h.lastRaw = raw
	h.calMS = append(h.calMS, k)
	return raw * calibNominalMS / k
}

// calibrator is a fixed gather/scatter kernel the benchmark owns: run between
// ops, its timing says what machine each op saw (see hostClock). It is
// memory-bound on purpose. What disturbs this sandbox is other tenants'
// traffic in the shared cache and memory system: a kernel that fits a core's
// private caches does not feel it, and one pass over 24 MB tracks the
// program's slowdown to within a few per cent. Averaging keeps its values in
// their initial range, so its cost never drifts.
type calibrator struct {
	mu   sync.Mutex
	idx  []int32
	data []float64
}

// calibElems is the kernel's size for measurement; -smoke and the tests, which
// measure nothing, run a kernel of smokeCalibElems.
const (
	calibElems      = 1 << 21
	smokeCalibElems = 1 << 12
)

func newCalibrator(elems uint32) *calibrator {
	c := &calibrator{idx: make([]int32, elems), data: make([]float64, elems)}
	x := uint32(1)
	for i := range c.idx {
		x = x*1664525 + 1013904223
		c.idx[i] = int32(x % elems)
		c.data[i] = float64(i)
	}
	return c
}

// bytes is the calibrator's share of the live heap.
func (c *calibrator) bytes() uint64 { return uint64(len(c.idx)) * (4 + 8) }

// run makes one gather/scatter pass and returns the host milliseconds.
// Concurrent callers take turns.
func (c *calibrator) run() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	t0 := time.Now()
	for i, j := range c.idx {
		c.data[j] = 0.5*c.data[j] + 0.5*c.data[i]
	}
	return ms(time.Since(t0))
}
