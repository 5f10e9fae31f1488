package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"op2ca/internal/core"
)

// span is one host-clock interval around a call into a layer. Parent indexes
// the span that caused it (-1 for a root); spans of one op share Op.
type span struct {
	Name       string
	Start, End time.Duration // since the recorder's origin
	Parent     int
	Op         int64
	// Track separates root spans that overlap in time (the jobs of
	// serve-mixed's two clients); children are drawn on their root's track.
	Track int
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is used from one
// goroutine: batch workloads are serial, and serve-mixed adds its spans from
// client clocks and job events after the load has drained.
type recorder struct {
	origin time.Time
	spans  []span
	stack  []int
	op     int64
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span under the innermost open span. A nil recorder records
// nothing, so untraced runs share the code path at the cost of one branch.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.origin), Parent: parent, Op: r.op})
	id := len(r.spans) - 1
	r.stack = append(r.stack, id)
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.origin)
	r.stack = r.stack[:len(r.stack)-1]
}

// add records a span measured elsewhere (client clocks, job events).
func (r *recorder) add(name string, start, end time.Time, parent int, op int64) int {
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.origin), End: end.Sub(r.origin), Parent: parent, Op: op})
	return len(r.spans) - 1
}

// nextOp starts a new op: spans begun from now on carry its identifier.
func (r *recorder) nextOp() {
	if r != nil {
		r.op++
	}
}

// selfTimes returns each span's duration minus the part of its interval its
// child spans cover (children may overlap each other; overlap counts once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, upTo := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < upTo {
				lo = upTo
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (open in
// chrome://tracing or ui.perfetto.dev). Complete events nest by time on one
// track; args carry the parent index, the op id and the self time.
func (r *recorder) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(r.spans)
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		root := s
		for root.Parent >= 0 {
			root = r.spans[root.Parent]
		}
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1 + root.Track,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Args: map[string]any{"parent": s.Parent, "op": s.Op, "self_us": float64(self[i]) / 1e3},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spanBackend measures a backend from outside: it forwards every call and
// times ChainBegin..ChainEnd and stand-alone ParLoop calls on the host
// clock. With a recorder it also emits one span per chain and loop, and it
// keeps each chain's loops from their first execution so the inspector can
// be timed on the same descriptors.
type spanBackend struct {
	core.Backend
	rec *recorder

	chainNS, loopNS time.Duration
	chains          map[string][]core.Loop
	chainOrder      []string

	open      string
	openLoops []core.Loop
	openSpan  int
	openAt    time.Time
	recording bool
}

func newSpanBackend(b core.Backend, rec *recorder) *spanBackend {
	return &spanBackend{Backend: b, rec: rec, chains: map[string][]core.Loop{}}
}

func (s *spanBackend) ChainBegin(name string) {
	s.open = name
	_, seen := s.chains[name]
	s.recording = !seen
	s.openLoops = nil
	s.openSpan = s.rec.begin("cluster.chain:" + name)
	s.openAt = time.Now()
	s.Backend.ChainBegin(name)
}

func (s *spanBackend) ChainEnd() {
	s.Backend.ChainEnd()
	s.chainNS += time.Since(s.openAt)
	s.rec.end(s.openSpan)
	if s.recording {
		s.chains[s.open] = s.openLoops
		s.chainOrder = append(s.chainOrder, s.open)
	}
	s.open = ""
}

func (s *spanBackend) ParLoop(l core.Loop) {
	if s.open != "" {
		if s.recording {
			s.openLoops = append(s.openLoops, l)
		}
		s.Backend.ParLoop(l)
		return
	}
	id := s.rec.begin("cluster.loop:" + l.Kernel.Name)
	t0 := time.Now()
	s.Backend.ParLoop(l)
	s.loopNS += time.Since(t0)
	s.rec.end(id)
}
