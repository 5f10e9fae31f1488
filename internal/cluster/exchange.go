package cluster

import (
	"cmp"
	"slices"
	"strconv"
	"sync"

	"op2ca/internal/core"
	"op2ca/internal/halo"
	"op2ca/internal/netsim"
	"op2ca/internal/reuse"
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

// copySeg is one contiguous run of a receiver's import work: the n elements
// of one dat (by ID, of dimension dim) that rank from exports to it, named by
// the n local indices from exportLo on in from's halo.Layout.ExportLocals,
// land in the receiver's storage of the dat from value offset dstStart on.
// Segments name dats by ID, not *core.Dat, and hold no pointers: a schedule
// belongs to the layouts (Layouts.schedule), the backends built on them may
// each have a program of their own, and its copy list may be borrowed (see
// lendable).
type copySeg struct {
	from, dat, dim int32
	exportLo, n    int32
	dstStart       int32
}

// exchangeSchedule is the executor state of one halo exchange — which
// messages it sends (standard OP2: one per dat, halo kind, shell and
// neighbour; grouped: everything for one neighbour in a single message, the
// paper's Figure 8) and where every value comes from and lands. It depends
// only on the halo layouts, the spec set and the grouping, so it is built
// once per layouts and replayed by every backend on them; replays walk flat
// index lists, write nothing in the schedule and allocate nothing.
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
	// copies[copyAt[r]:copyAt[r+1]] is rank r's copy list: its imports, each
	// read straight from the owner's storage. Ranks share one address space
	// and virtual time is priced from msgs, so no value is staged between
	// owner and receiver.
	copies []copySeg
	copyAt []int32
}

// eachRun calls f with every non-empty export list (exports) or import range
// rank r has of specs, in spec, halo kind (0 execute, 1 non-execute), shell
// order — the same order for senders and receivers; d counts shells from 0.
func (l *Layouts) eachRun(r int, specs []exchangeSpec, exports bool, f func(si int, kind, d int8, rg halo.Range)) {
	for si, sp := range specs {
		sl := l.ranks[r].SetL(sp.dat.Set)
		runs := sl.Imports
		if exports {
			runs = sl.Exports
		}
		for kind, depth := range [2]int{sp.execDepth, sp.nonexecDepth} {
			for d := 1; d <= depth; d++ {
				for _, rg := range runs(halo.Kind(kind), d) {
					if rg.Count > 0 {
						f(si, int8(kind), int8(d-1), rg)
					}
				}
			}
		}
	}
}

// sentSeg is one shell slice a sender exports, as its receiver looks it up:
// key orders the sender, the spec, the halo kind and the shell, the order in
// which one receiver's sent slices are laid out and its imports claim them;
// lo and n are the slice's run of the sender's ExportLocals.
type sentSeg struct {
	key     uint64
	lo, n   int32
	claimed bool
}

// segKey is a sentSeg's key.
func segKey(from int32, si int, kind, d int8) uint64 {
	return uint64(from)<<32 | uint64(si)<<9 | uint64(kind)<<8 | uint64(uint8(d))
}

// scheduleScratch is what buildSchedule works in and keeps nothing of: the
// per-receiver counts and cursors and every slice sent, filed by receiver.
// Builds take one from schedulePool and put it back, so a process that builds
// many schedules sizes it once; two collections empty the pool.
type scheduleScratch struct {
	inLo, msgTo, fill []int32
	sent              []sentSeg
}

var schedulePool sync.Pool // of *scheduleScratch, no New: an empty pool hands over nil

// buildSchedule derives the exchange schedule of one filtered spec set: the
// one place messages are formed and copy lists derived. Senders walk their
// export lists in spec, kind, shell order; receivers walk their import ranges
// the same way and claim the matching sent slices, which must leave none
// unclaimed. It counts first and fills second, so the messages and the copy
// list — all ranks' in one array — are taken from a at their exact size, both
// from one slab. Layouts are consistent by construction, so a mismatch is a
// runtime bug: it panics with a typed *ExchangeError before any value moves.
func (l *Layouts) buildSchedule(specs []exchangeSpec, grouped bool, a *arena) *exchangeSchedule {
	n := len(l.ranks)
	s := &exchangeSchedule{
		sendBytes: make([]int64, n),
		recvBytes: make([]int64, n),
		nDats:     len(specs),
		copyAt:    make([]int32, n+1),
	}
	sc, _ := schedulePool.Get().(*scheduleScratch)
	if sc == nil {
		sc = new(scheduleScratch)
	}
	defer schedulePool.Put(sc)
	// Count. inLo[to+1] counts the slices sent to rank to, then becomes the
	// start of its run in sent; msgTo[to] is the sender that last sent to
	// it, +1, then — grouped — the index of that sender's message to it.
	inLo, msgTo := reuse.Filled(sc.inLo, n+1, 0), reuse.Filled(sc.msgTo, n, 0)
	sc.inLo, sc.msgTo = inLo, msgTo
	nSent, nCopies, nMsgs := 0, 0, 0
	for r := 0; r < n; r++ {
		neigh := 0
		l.eachRun(r, specs, true, func(_ int, _, _ int8, ex halo.Range) {
			nSent++
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
		l.eachRun(r, specs, false, func(int, int8, int8, halo.Range) { nCopies++ })
	}
	if !grouped {
		nMsgs = nSent
	}
	for to := 0; to < n; to++ {
		inLo[to+1] += inLo[to]
	}

	// Send: messages, and each slice filed under its receiver.
	w := a.words(words[netsim.Message](nMsgs) + words[copySeg](nCopies))
	s.msgs = view[netsim.Message](&w, nMsgs)[:0]
	s.copies = view[copySeg](&w, nCopies)[:0]
	sent, fill := reuse.Filled(sc.sent, nSent, sentSeg{}), append(sc.fill[:0], inLo[:n]...)
	sc.sent, sc.fill = sent, fill
	clear(msgTo)
	for r := 0; r < n; r++ {
		l.eachRun(r, specs, true, func(si int, kind, d int8, ex halo.Range) {
			bytes := int64(ex.Count) * int64(specs[si].dat.Dim) * 8
			if mi := msgTo[ex.Rank] - 1; grouped && mi >= 0 && s.msgs[mi].From == int32(r) {
				s.msgs[mi].Bytes += bytes
			} else {
				msgTo[ex.Rank] = int32(len(s.msgs) + 1)
				s.msgs = append(s.msgs, netsim.Message{From: int32(r), To: ex.Rank, Bytes: bytes})
			}
			s.sendBytes[r] += bytes
			s.recvBytes[ex.Rank] += bytes
			sent[fill[ex.Rank]] = sentSeg{key: segKey(int32(r), si, kind, d), lo: ex.Start, n: ex.Count}
			fill[ex.Rank]++
		})
	}
	for _, m := range s.msgs {
		s.bytes += m.Bytes
		s.maxMsgBytes = max(s.maxMsgBytes, m.Bytes)
	}

	// Receive: every import claims the slice its owner sent, found by key in
	// the receiver's run of sent, which is ordered by it.
	for r := 0; r < n; r++ {
		in := sent[inLo[r]:inLo[r+1]]
		s.copyAt[r] = int32(len(s.copies))
		l.eachRun(r, specs, false, func(si int, kind, d int8, rg halo.Range) {
			sp := specs[si]
			key := segKey(rg.Rank, si, kind, d)
			i, found := slices.BinarySearchFunc(in, key, func(e sentSeg, k uint64) int { return cmp.Compare(e.key, k) })
			if !found || in[i].claimed {
				panic(&ExchangeError{Kind: ErrMissing, Rank: r, From: rg.Rank, Dat: sp.dat.Name})
			}
			seg, dim := &in[i], int32(sp.dat.Dim)
			if seg.n != rg.Count {
				panic(&ExchangeError{Kind: ErrSizeMismatch, Rank: r, From: rg.Rank,
					Dat: sp.dat.Name, Want: int(rg.Count * dim), Got: int(seg.n * dim)})
			}
			seg.claimed = true
			s.copies = append(s.copies, copySeg{from: rg.Rank, dat: int32(sp.dat.ID), dim: dim,
				exportLo: seg.lo, n: seg.n, dstStart: rg.Start * dim})
		})
	}
	s.copyAt[n] = int32(len(s.copies))
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

// exchange "transfers" halo data for the given specs: every rank copies its
// imports straight from their owners' storage, in one fork. The data movement
// is real (receivers' halo copies are overwritten with owners' current
// values); the returned schedule carries what the virtual network needs to
// charge time — pack and unpack included, priced from its bytes — and nothing
// here charges it. Schedules are memoised once, by spec fingerprint on the
// layouts (Layouts.schedule), which every backend built on them shares; with
// the plan cache disabled the exchange runs through a schedule built for this
// call — the same walk, never a second code path.
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
	sc.sched = s
	b.forEachRank(b.fnCopy)
	return s
}

// copyRank fills rank r's imported halo copies from their owners. It writes
// only rank r's halo copies and reads only owned values, which no rank writes
// during an exchange, so the ranks' copies may run at once.
func (b *Backend) copyRank(w, r int) {
	s, dst := b.scr.sched, b.dats[r]
	for _, c := range s.copies[s.copyAt[r]:s.copyAt[r+1]] {
		src, dim := b.dats[c.from][c.dat], int(c.dim)
		out := dst[c.dat][c.dstStart:]
		for i, loc := range b.layouts[c.from].ExportLocals()[c.exportLo : c.exportLo+c.n] {
			copy(out[i*dim:(i+1)*dim], src[int(loc)*dim:(int(loc)+1)*dim])
		}
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
// are consumed by redundant halo iterations). A dat named by several
// arguments is listed once, where it is first named, with the deepest
// requirement. The returned slice aliases Backend scratch, valid until the
// next standardNeeds call; filterNeeds copies what it keeps.
func (b *Backend) standardNeeds(l core.Loop) []exchangeSpec {
	if !l.HasIndirection() {
		return nil
	}
	need := b.scr.needs[:0]
	for _, a := range l.Args {
		if a.IsGlobal() {
			continue
		}
		var e, n int
		switch {
		case a.Indirect() && (a.Mode == core.Read || a.Mode == core.ReadWrite):
			e, n = 1, 1
		case !a.Indirect() && a.Mode.Reads():
			e = 1
		default:
			continue
		}
		i := 0
		for i < len(need) && need[i].dat != a.Dat {
			i++
		}
		if i == len(need) {
			need = append(need, exchangeSpec{dat: a.Dat})
		}
		need[i].execDepth = max(need[i].execDepth, e)
		need[i].nonexecDepth = max(need[i].nonexecDepth, n)
	}
	b.scr.needs = need
	return need
}
