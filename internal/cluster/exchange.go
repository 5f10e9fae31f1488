package cluster

import (
	"strconv"

	"op2ca/internal/core"
	"op2ca/internal/halo"
	"op2ca/internal/netsim"
)

// exchangeSpec asks for halo shells of one dat: execute shells 1..execDepth
// and non-execute shells 1..nonexecDepth.
type exchangeSpec struct {
	dat          *core.Dat
	execDepth    int
	nonexecDepth int
}

// maxSchedules bounds how many distinct (spec set, grouping) exchanges one
// backend memoises schedules for. The runtime dirty state decides which
// shells an execution actually exchanges, so a loop or a chain normally sees
// one or two spec sets (the first execution after a scatter, then the steady
// state) and a program a few dozen; anything beyond the bound is exchanged
// through a schedule built for the occasion and dropped.
const maxSchedules = 256

// appendSpecFingerprint appends a comparable key for a filtered spec set to
// dst: which dats exchange which shell depths, under which message grouping.
// The grouping joins the key because the autotuner can run the same plan
// grouped one window and ungrouped the next; their schedules differ. Callers
// pass reusable scratch so the steady-state schedule lookup allocates
// nothing.
func appendSpecFingerprint(dst []byte, specs []exchangeSpec, grouped bool) []byte {
	if grouped {
		dst = append(dst, "g;"...)
	} else {
		dst = append(dst, "u;"...)
	}
	for _, sp := range specs {
		dst = strconv.AppendInt(dst, int64(sp.dat.ID), 10)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(sp.execDepth), 10)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(sp.nonexecDepth), 10)
		dst = append(dst, ';')
	}
	return dst
}

// packSeg is one contiguous run of a sender's pack work: the elements of
// one dat exported to one neighbour, in the receiver's storage order.
type packSeg struct {
	dat    *core.Dat
	locals []int32
}

// unpackSeg is one contiguous run of a receiver's unpack work: the nvals
// values at slab offset off land at value offset start of the dat's local
// storage.
type unpackSeg struct {
	dat   *core.Dat
	start int32
	nvals int32
	off   int32
}

// exchangeSchedule is the executor state of one halo exchange — which
// messages it sends (standard OP2: one per dat, halo kind, shell and
// neighbour; grouped: everything for one neighbour in a single message, the
// paper's Figure 8) and where every value is gathered from and lands. It
// depends only on the halo layouts, the spec set and the grouping, so it is
// built once and replayed; replays walk flat index lists and allocate
// nothing.
type exchangeSchedule struct {
	// msgs are the virtual-network messages in per-sender serialisation
	// order; sendBytes and recvBytes total them per rank.
	msgs      []netsim.Message
	sendBytes []int64
	recvBytes []int64
	nDats     int
	// The exchange's shape, as the stats, the model and the autotuner
	// consume it: total and largest message bytes, and the largest number
	// of distinct neighbours any rank sends to.
	bytes       int64
	maxMsgBytes int64
	maxNeigh    int
	// pack[r] is rank r's gather list, written consecutively into the
	// payload slab from slabLo[r]; unpack[r] its scatter list. An exchange
	// packs and unpacks synchronously, so all schedules of a backend share
	// one slab (execScratch.slab) of at least slabLo[NParts] values.
	pack   [][]packSeg
	slabLo []int32
	unpack [][]unpackSeg
}

// segKey identifies one exported shell slice during schedule construction:
// the sender's export list and the receiver's import range for the same
// (spec, halo kind, shell) must pair up.
type segKey struct {
	from, to int32
	spec     int32
	kind     int8 // 0 execute, 1 non-execute
	depth    int8 // shell index, 0-based
}

// slabSeg is where in the payload slab a sender packs one shell slice.
type slabSeg struct{ off, nvals int32 }

// buildSchedule derives the exchange schedule of one filtered spec set: the
// one place messages are formed and pack/unpack indices derived. Senders
// walk their export lists in spec, kind, shell order; receivers walk their
// import ranges the same way and claim the matching slab windows, which must
// leave none unclaimed. Layouts are consistent by construction, so a
// mismatch is a runtime bug: it panics with a typed *ExchangeError before
// any value moves.
func (b *Backend) buildSchedule(specs []exchangeSpec, grouped bool) *exchangeSchedule {
	n := b.cfg.NParts
	s := &exchangeSchedule{
		sendBytes: make([]int64, n),
		recvBytes: make([]int64, n),
		nDats:     len(specs),
		pack:      make([][]packSeg, n),
		slabLo:    make([]int32, n+1),
		unpack:    make([][]unpackSeg, n),
	}
	segs := map[segKey]slabSeg{}
	// byDest maps a sender's neighbours to their grouped messages;
	// ungrouped, it only counts distinct neighbours.
	byDest := map[int32]int{}
	off := int32(0)
	for r := 0; r < n; r++ {
		s.slabLo[r] = off
		clear(byDest)
		for si, sp := range specs {
			sl := b.layouts[r].SetL(sp.dat.Set)
			add := func(exports [][]halo.ExportList, depth int, kind int8) {
				for d := 0; d < depth; d++ {
					for _, ex := range exports[d] {
						if len(ex.Locals) == 0 {
							continue
						}
						nvals := int32(len(ex.Locals) * sp.dat.Dim)
						bytes := int64(nvals) * 8
						mi, known := byDest[ex.Rank]
						if !known || !grouped {
							mi = len(s.msgs)
							byDest[ex.Rank] = mi
							s.msgs = append(s.msgs, netsim.Message{From: int32(r), To: ex.Rank})
						}
						s.msgs[mi].Bytes += bytes
						s.sendBytes[r] += bytes
						s.recvBytes[ex.Rank] += bytes
						s.pack[r] = append(s.pack[r], packSeg{dat: sp.dat, locals: ex.Locals})
						segs[segKey{int32(r), ex.Rank, int32(si), kind, int8(d)}] = slabSeg{off: off, nvals: nvals}
						off += nvals
					}
				}
			}
			add(sl.ExportExec, sp.execDepth, 0)
			add(sl.ExportNonexec, sp.nonexecDepth, 1)
		}
		s.maxNeigh = max(s.maxNeigh, len(byDest))
	}
	s.slabLo[n] = off
	for _, m := range s.msgs {
		s.bytes += m.Bytes
		s.maxMsgBytes = max(s.maxMsgBytes, m.Bytes)
	}
	for r := 0; r < n; r++ {
		for si, sp := range specs {
			sl := b.layouts[r].SetL(sp.dat.Set)
			dim := int32(sp.dat.Dim)
			add := func(ranges [][]halo.ImportRange, depth int, kind int8) {
				for d := 0; d < depth; d++ {
					for _, rg := range ranges[d] {
						if rg.Count == 0 {
							continue
						}
						key := segKey{rg.Rank, int32(r), int32(si), kind, int8(d)}
						seg, sent := segs[key]
						if !sent {
							panic(&ExchangeError{Kind: ErrMissing, Rank: r, From: rg.Rank, Dat: sp.dat.Name})
						}
						if want := rg.Count * dim; seg.nvals != want {
							panic(&ExchangeError{Kind: ErrSizeMismatch, Rank: r, From: rg.Rank,
								Dat: sp.dat.Name, Want: int(want), Got: int(seg.nvals)})
						}
						delete(segs, key)
						s.unpack[r] = append(s.unpack[r], unpackSeg{
							dat: sp.dat, start: rg.Start * dim, nvals: seg.nvals, off: seg.off})
					}
				}
			}
			add(sl.ImportExec, sp.execDepth, 0)
			add(sl.ImportNonexec, sp.nonexecDepth, 1)
		}
	}
	for k := range segs {
		panic(&ExchangeError{Kind: ErrUnexpected, Rank: int(k.to), From: k.from, Dat: specs[k.spec].dat.Name})
	}
	return s
}

// exchange packs, "transfers" and unpacks halo data for the given specs.
// The data movement is real (receivers' halo copies are overwritten with
// owners' current values); the returned schedule carries what the virtual
// network needs to charge time. Schedules are memoised per backend by spec
// fingerprint; with the plan cache disabled, or beyond the memoisation
// bound, the exchange runs through a schedule built for this call — the
// same walk, never a second code path.
func (b *Backend) exchange(specs []exchangeSpec, grouped bool) *exchangeSchedule {
	if len(specs) == 0 {
		return b.noExchange
	}
	sc := &b.scr
	sc.fpBuf = appendSpecFingerprint(sc.fpBuf[:0], specs, grouped)
	s, ok := b.schedules[string(sc.fpBuf)]
	if !ok {
		s = b.buildSchedule(specs, grouped)
		if !b.cfg.NoPlanCache && len(b.schedules) < maxSchedules {
			b.schedules[string(sc.fpBuf)] = s
		}
	}
	if len(s.msgs) == 0 {
		return s
	}
	if need := int(s.slabLo[b.cfg.NParts]); need > len(sc.slab) {
		sc.slab = b.regrow(sc.slab, need)
	}
	sc.sched = s
	b.forEachRank(b.fnPack)
	b.forEachRank(b.fnUnpack)
	return s
}

// packRank gathers rank r's exported values into its slab window.
func (b *Backend) packRank(w, r int) {
	s, slab := b.scr.sched, b.scr.slab
	at := int(s.slabLo[r])
	for _, seg := range s.pack[r] {
		local := b.dats[r][seg.dat.ID]
		dim := seg.dat.Dim
		for _, loc := range seg.locals {
			at += copy(slab[at:], local[int(loc)*dim:(int(loc)+1)*dim])
		}
	}
}

// unpackRank scatters rank r's imported slab windows into its halo copies.
func (b *Backend) unpackRank(w, r int) {
	s, slab := b.scr.sched, b.scr.slab
	for _, seg := range s.unpack[r] {
		copy(b.dats[r][seg.dat.ID][seg.start:seg.start+seg.nvals], slab[seg.off:seg.off+seg.nvals])
	}
}

// filterNeeds drops the parts of the requested exchanges already satisfied
// by the current validity state and bumps validity for what will be
// exchanged. The returned slice aliases Backend scratch, valid until the
// next filterNeeds call (each execution filters once before exchanging).
func (b *Backend) filterNeeds(specs []exchangeSpec) []exchangeSpec {
	out := b.scr.filtered[:0]
	for _, sp := range specs {
		v := &b.valid[sp.dat.ID]
		needE, needN := 0, 0
		if sp.execDepth > v.exec {
			needE = sp.execDepth
		}
		if sp.nonexecDepth > v.nonexec {
			needN = sp.nonexecDepth
		}
		if needE == 0 && needN == 0 {
			continue
		}
		out = append(out, exchangeSpec{dat: sp.dat, execDepth: needE, nonexecDepth: needN})
		if needE > v.exec {
			v.exec = needE
		}
		if needN > v.nonexec {
			v.nonexec = needN
		}
	}
	b.scr.filtered = out
	return out
}

// standardNeeds lists the depth-1 halo requirements of one standalone loop,
// OP2's per-loop dirty-bit rule: indirectly read dats need both halo kinds;
// directly read dats in indirect loops need the execute halo (their values
// are consumed by redundant halo iterations).
func standardNeeds(l core.Loop) []exchangeSpec {
	if !l.HasIndirection() {
		return nil
	}
	need := map[*core.Dat]*exchangeSpec{}
	var order []*core.Dat
	add := func(d *core.Dat, e, n int) {
		sp, ok := need[d]
		if !ok {
			sp = &exchangeSpec{dat: d}
			need[d] = sp
			order = append(order, d)
		}
		if e > sp.execDepth {
			sp.execDepth = e
		}
		if n > sp.nonexecDepth {
			sp.nonexecDepth = n
		}
	}
	for _, a := range l.Args {
		if a.IsGlobal() {
			continue
		}
		switch {
		case a.Indirect() && (a.Mode == core.Read || a.Mode == core.ReadWrite):
			add(a.Dat, 1, 1)
		case !a.Indirect() && a.Mode.Reads():
			add(a.Dat, 1, 0)
		}
	}
	out := make([]exchangeSpec, 0, len(order))
	for _, d := range order {
		out = append(out, *need[d])
	}
	return out
}
