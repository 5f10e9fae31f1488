package cluster

import (
	"cmp"
	"slices"
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
// Layouts memoises schedules for. The runtime dirty state decides which
// shells an execution actually exchanges, so a loop or a chain normally sees
// one or two spec sets (the first execution after a scatter, then the steady
// state) and a program a few dozen; anything beyond the bound is exchanged
// through a schedule built for the occasion and dropped.
const maxSchedules = 256

// appendSpecFingerprint appends a comparable key for a filtered spec set to
// dst: which dats — by ID, set and dimension, all a schedule reads of one, so
// that the key means the same schedule whichever program on the layouts asks
// — exchange which shell depths, under which message grouping. The grouping
// joins the key because the autotuner can run the same plan grouped one
// window and ungrouped the next; their schedules differ. Callers pass
// reusable scratch so the steady-state schedule lookup allocates nothing.
func appendSpecFingerprint(dst []byte, specs []exchangeSpec, grouped bool) []byte {
	if grouped {
		dst = append(dst, "g;"...)
	} else {
		dst = append(dst, "u;"...)
	}
	for _, sp := range specs {
		dst = strconv.AppendInt(dst, int64(sp.dat.ID), 10)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(sp.dat.Set.ID), 10)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(sp.dat.Dim), 10)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(sp.execDepth), 10)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(sp.nonexecDepth), 10)
		dst = append(dst, ';')
	}
	return dst
}

// packSeg is one contiguous run of a sender's pack work: the elements of
// one dat (by ID, of dimension dim) exported to one neighbour, in the
// receiver's storage order. Segments name dats by ID, not *core.Dat: a
// schedule belongs to the layouts (Layouts.schedule), and the backends built
// on them may each have a program of their own.
type packSeg struct {
	dat, dim int32
	locals   []int32
}

// unpackSeg is one contiguous run of a receiver's unpack work: the nvals
// values at slab offset off land at value offset start of dat's local
// storage.
type unpackSeg struct {
	dat   int32
	start int32
	nvals int32
	off   int32
}

// exchangeSchedule is the executor state of one halo exchange — which
// messages it sends (standard OP2: one per dat, halo kind, shell and
// neighbour; grouped: everything for one neighbour in a single message, the
// paper's Figure 8) and where every value is gathered from and lands. It
// depends only on the halo layouts, the spec set and the grouping, so it is
// built once per layouts and replayed by every backend on them; replays walk
// flat index lists, write nothing in the schedule and allocate nothing.
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

// eachExport calls f with every non-empty export list rank r sends of specs,
// in spec, halo kind (0 execute, 1 non-execute), shell order.
func (l *Layouts) eachExport(r int, specs []exchangeSpec, f func(si int, kind, d int8, ex halo.ExportList)) {
	for si, sp := range specs {
		sl := l.ranks[r].SetL(sp.dat.Set)
		for kind, exports := range [2][][]halo.ExportList{sl.ExportExec[:sp.execDepth], sl.ExportNonexec[:sp.nonexecDepth]} {
			for d, shell := range exports {
				for _, ex := range shell {
					if len(ex.Locals) > 0 {
						f(si, int8(kind), int8(d), ex)
					}
				}
			}
		}
	}
}

// eachImport calls f with every non-empty import range rank r receives of
// specs, in the order eachExport walks the senders' lists.
func (l *Layouts) eachImport(r int, specs []exchangeSpec, f func(si int, kind, d int8, rg halo.ImportRange)) {
	for si, sp := range specs {
		sl := l.ranks[r].SetL(sp.dat.Set)
		for kind, imports := range [2][][]halo.ImportRange{sl.ImportExec[:sp.execDepth], sl.ImportNonexec[:sp.nonexecDepth]} {
			for d, shell := range imports {
				for _, rg := range shell {
					if rg.Count > 0 {
						f(si, int8(kind), int8(d), rg)
					}
				}
			}
		}
	}
}

// sentSeg is one shell slice a sender packs, as its receiver looks it up:
// key orders the sender, the spec, the halo kind and the shell, the order in
// which one receiver's sent slices are laid out and its imports claim them.
type sentSeg struct {
	key        uint64
	off, nvals int32
	claimed    bool
}

// segKey is a sentSeg's key.
func segKey(from int32, si int, kind, d int8) uint64 {
	return uint64(from)<<32 | uint64(si)<<9 | uint64(kind)<<8 | uint64(uint8(d))
}

// buildSchedule derives the exchange schedule of one filtered spec set: the
// one place messages are formed and pack/unpack indices derived. Senders
// walk their export lists in spec, kind, shell order; receivers walk their
// import ranges the same way and claim the matching slab windows, which must
// leave none unclaimed. It counts first and fills second, so messages and
// every rank's pack and unpack lists are made at their exact size, the lists
// of all ranks from one array per kind. Layouts are consistent by
// construction, so a mismatch is a runtime bug: it panics with a typed
// *ExchangeError before any value moves.
func (l *Layouts) buildSchedule(specs []exchangeSpec, grouped bool) *exchangeSchedule {
	n := len(l.ranks)
	s := &exchangeSchedule{
		sendBytes: make([]int64, n),
		recvBytes: make([]int64, n),
		nDats:     len(specs),
		pack:      make([][]packSeg, n),
		slabLo:    make([]int32, n+1),
		unpack:    make([][]unpackSeg, n),
	}
	// Count. inLo[to+1] counts the slices sent to rank to, then becomes the
	// start of its run in sent; msgTo[to] is the sender that last sent to
	// it, +1, then — grouped — the index of that sender's message to it.
	inLo, msgTo := make([]int32, n+1), make([]int32, n)
	nPack, nUnpack, nMsgs := 0, 0, 0
	for r := 0; r < n; r++ {
		neigh := 0
		l.eachExport(r, specs, func(_ int, _, _ int8, ex halo.ExportList) {
			nPack++
			inLo[ex.Rank+1]++
			if msgTo[ex.Rank] != int32(r+1) {
				msgTo[ex.Rank] = int32(r + 1)
				neigh++
			}
		})
		s.maxNeigh = max(s.maxNeigh, neigh)
		if grouped {
			nMsgs += neigh
		}
		l.eachImport(r, specs, func(int, int8, int8, halo.ImportRange) { nUnpack++ })
	}
	if !grouped {
		nMsgs = nPack
	}
	for to := 0; to < n; to++ {
		inLo[to+1] += inLo[to]
	}

	// Send: messages, pack lists and the slab windows, each also filed under
	// its receiver.
	s.msgs = make([]netsim.Message, 0, nMsgs)
	packs := make([]packSeg, 0, nPack)
	sent, fill := make([]sentSeg, nPack), slices.Clone(inLo[:n])
	clear(msgTo)
	off := int32(0)
	for r := 0; r < n; r++ {
		s.slabLo[r] = off
		lo := len(packs)
		l.eachExport(r, specs, func(si int, kind, d int8, ex halo.ExportList) {
			sp := specs[si]
			nvals := int32(len(ex.Locals) * sp.dat.Dim)
			bytes := int64(nvals) * 8
			if mi := msgTo[ex.Rank] - 1; grouped && mi >= 0 && s.msgs[mi].From == int32(r) {
				s.msgs[mi].Bytes += bytes
			} else {
				msgTo[ex.Rank] = int32(len(s.msgs) + 1)
				s.msgs = append(s.msgs, netsim.Message{From: int32(r), To: ex.Rank, Bytes: bytes})
			}
			s.sendBytes[r] += bytes
			s.recvBytes[ex.Rank] += bytes
			packs = append(packs, packSeg{dat: int32(sp.dat.ID), dim: int32(sp.dat.Dim), locals: ex.Locals})
			sent[fill[ex.Rank]] = sentSeg{key: segKey(int32(r), si, kind, d), off: off, nvals: nvals}
			fill[ex.Rank]++
			off += nvals
		})
		s.pack[r] = packs[lo:len(packs):len(packs)]
	}
	s.slabLo[n] = off
	for _, m := range s.msgs {
		s.bytes += m.Bytes
		s.maxMsgBytes = max(s.maxMsgBytes, m.Bytes)
	}

	// Receive: every import claims the slice its owner sent, found by key in
	// the receiver's run of sent, which is ordered by it.
	unpacks := make([]unpackSeg, 0, nUnpack)
	for r := 0; r < n; r++ {
		in, lo := sent[inLo[r]:inLo[r+1]], len(unpacks)
		l.eachImport(r, specs, func(si int, kind, d int8, rg halo.ImportRange) {
			sp := specs[si]
			key := segKey(rg.Rank, si, kind, d)
			i, found := slices.BinarySearchFunc(in, key, func(e sentSeg, k uint64) int { return cmp.Compare(e.key, k) })
			if !found || in[i].claimed {
				panic(&ExchangeError{Kind: ErrMissing, Rank: r, From: rg.Rank, Dat: sp.dat.Name})
			}
			seg := &in[i]
			if want := rg.Count * int32(sp.dat.Dim); seg.nvals != want {
				panic(&ExchangeError{Kind: ErrSizeMismatch, Rank: r, From: rg.Rank,
					Dat: sp.dat.Name, Want: int(want), Got: int(seg.nvals)})
			}
			seg.claimed = true
			unpacks = append(unpacks, unpackSeg{
				dat: int32(sp.dat.ID), start: rg.Start * int32(sp.dat.Dim), nvals: seg.nvals, off: seg.off})
		})
		s.unpack[r] = unpacks[lo:len(unpacks):len(unpacks)]
	}
	for to := 0; to < n; to++ {
		for _, seg := range sent[inLo[to]:inLo[to+1]] {
			if !seg.claimed {
				from, si := int32(seg.key>>32), int(seg.key>>9&(1<<23-1))
				panic(&ExchangeError{Kind: ErrUnexpected, Rank: to, From: from, Dat: specs[si].dat.Name})
			}
		}
	}
	return s
}

// exchange packs, "transfers" and unpacks halo data for the given specs.
// The data movement is real (receivers' halo copies are overwritten with
// owners' current values); the returned schedule carries what the virtual
// network needs to charge time, and nothing here charges it. Schedules are
// memoised once, by spec fingerprint on the layouts (Layouts.schedule), which
// every backend built on them shares; with the plan cache disabled the
// exchange runs through a schedule built for this call — the same walk,
// never a second code path.
func (b *Backend) exchange(specs []exchangeSpec, grouped bool) *exchangeSchedule {
	if len(specs) == 0 {
		return b.noExchange
	}
	sc := &b.scr
	sc.fpBuf = appendSpecFingerprint(sc.fpBuf[:0], specs, grouped)
	s := b.sharedSchedule(sc.fpBuf, specs, grouped)
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
		local := b.dats[r][seg.dat]
		dim := int(seg.dim)
		for _, loc := range seg.locals {
			at += copy(slab[at:], local[int(loc)*dim:(int(loc)+1)*dim])
		}
	}
}

// unpackRank scatters rank r's imported slab windows into its halo copies.
func (b *Backend) unpackRank(w, r int) {
	s, slab := b.scr.sched, b.scr.slab
	for _, seg := range s.unpack[r] {
		copy(b.dats[r][seg.dat][seg.start:seg.start+seg.nvals], slab[seg.off:seg.off+seg.nvals])
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
