package cluster

// plancache.go is the inspect-once/execute-many half of the runtime's
// inspector/executor split. Inspection cost — Algorithm 3's halo-layer
// analysis, plan construction, and the derivation of every pack/unpack
// index — is paid once per distinct chain and amortised over the many
// executions of that chain (MG-CFD and Hydra re-execute the same handful of
// chains every multigrid cycle). The exchange schedules a plan's executions
// replay are memoised separately, on the layouts (see exchange.go): a
// schedule depends on the spec set and the layouts, not on the plan that
// asked.

import (
	"slices"

	"op2ca/internal/ca"
	"op2ca/internal/core"
	"op2ca/internal/halo"
)

// planKey identifies one chain plan: the chain name plus the structural
// signature of its loops and configured halo-extension overrides. The
// plans map itself is keyed by the two fields joined with a NUL (see
// planMapKey), so steady-state lookups build the key in reusable scratch
// bytes and allocate nothing; planKey survives as the decomposed form the
// checkpoint container stores and warmPlans is keyed by.
type planKey struct {
	Chain string `json:"chain"`
	Sig   string `json:"sig"`
}

// planEntry is one cached inspection result.
type planEntry struct {
	key    planKey
	mapKey string // key.Chain + "\x00" + key.Sig, the plans-map key
	plan   ca.Plan
	err    error
	// specs is plan.Required as exchange specs, precomputed once.
	specs []exchangeSpec
	// prog is the plan's executable form, compiled and validated by the
	// entry's first execution (see programFor); nil until then.
	prog *chainProgram
}

// planMapKey builds the plans-map key for (name, sig) into scratch bytes.
// The chain name cannot contain NUL (names come from ChainBegin callers
// and config files), so the join is unambiguous.
func (b *Backend) planMapKey(name string, sig []byte) []byte {
	buf := append(b.scr.keyBuf[:0], name...)
	buf = append(buf, 0)
	buf = append(buf, sig...)
	b.scr.keyBuf = buf
	return buf
}

// planEntry returns the cached plan for the chain, running ca.Inspect on
// first use. It returns nil when the cache is disabled, leaving the caller
// on the uncached path. The hit path allocates nothing: signature and map
// key are built in scratch and looked up via the map[string(bytes)] form.
func (b *Backend) planEntry(name string, loops []core.Loop, overrides []int) *planEntry {
	if b.cfg.NoPlanCache {
		return nil
	}
	b.scr.sigBuf = ca.AppendChainSignature(b.scr.sigBuf[:0], loops, overrides)
	mk := b.planMapKey(name, b.scr.sigBuf)
	if e, ok := b.plans[string(mk)]; ok {
		b.planHits++
		return e
	}
	key := planKey{Chain: name, Sig: string(b.scr.sigBuf)}
	if b.warmPlans[key] {
		// Restored from a checkpoint: the uninterrupted run already held
		// this entry, so the rebuild is accounted as a hit — plan-cache
		// stats continue exactly where the snapshot left them.
		delete(b.warmPlans, key)
		b.planHits++
		return b.buildPlanEntry(key, name, loops, overrides)
	}
	b.planMisses++
	return b.buildPlanEntry(key, name, loops, overrides)
}

// buildPlanEntry inspects the chain and caches the result under key.
func (b *Backend) buildPlanEntry(key planKey, name string, loops []core.Loop, overrides []int) *planEntry {
	e := &planEntry{key: key, mapKey: key.Chain + "\x00" + key.Sig}
	e.plan, e.err = ca.Inspect(name, loops, overrides)
	if e.err == nil {
		e.specs = requiredSpecs(e.plan)
	}
	b.plans[e.mapKey] = e
	return e
}

// PlanCacheStats reports the execution-plan cache's hit, miss and
// invalidation counts. Invalidations happen when a chain degrades under
// fault injection or the autotuner drops a policy: the entry is evicted and
// the next execution of the chain re-inspects and repopulates.
func (b *Backend) PlanCacheStats() (hits, misses, invalidations int64) {
	return b.planHits, b.planMisses, b.planInvalidations
}

// invalidatePlan evicts one cached plan (no-op for a nil entry or an entry
// already evicted, so repeated degradations of one window count once).
func (b *Backend) invalidatePlan(e *planEntry) {
	if e == nil {
		return
	}
	if _, ok := b.plans[e.mapKey]; ok {
		delete(b.plans, e.mapKey)
		b.planInvalidations++
	}
}

// specsFor returns the plan's required exchanges as specs: the entry's
// precomputed slice when cached, a fresh derivation otherwise (nil entry).
func (e *planEntry) specsFor(plan ca.Plan) []exchangeSpec {
	if e != nil {
		return e.specs
	}
	return requiredSpecs(plan)
}

// requiredSpecs is plan.Required as exchange specs.
func requiredSpecs(plan ca.Plan) []exchangeSpec {
	specs := make([]exchangeSpec, 0, len(plan.Required))
	for _, r := range plan.Required {
		specs = append(specs, exchangeSpec{dat: r.Dat, execDepth: r.ExecDepth, nonexecDepth: r.NonexecDepth})
	}
	return specs
}

// viewKind says how a kernel view is bound at each iteration.
type viewKind uint8

const (
	viewDirect   viewKind = iota // data[iter]
	viewIndirect                 // data[maps[iter*arity+slot]]
	viewGlobal                   // the loop's live Gbl buffer, bound once per execution
)

// viewSlot is one kernel view of a compiled loop on one rank: everything
// the executor needs to bind it, resolved from the core.Arg once. A vector
// argument occupies Map.Arity consecutive slots.
type viewSlot struct {
	kind viewKind
	// arg indexes Loop.Args: where a global's buffer is re-bound from.
	arg int32
	// arity and slot locate an indirect view's entry in its map row.
	arity int32
	slot  int32
	dim   int
	data  []float64 // the dat's rank-local storage (direct, indirect)
	maps  []int32   // the map's localized values (indirect)
}

// nxRange is one loop's non-execute refresh range on one rank (direct
// loops re-iterate non-execute halo copies of their outputs).
type nxRange struct{ lo, hi int }

// loopSplit is where one loop of a CA chain runs on one rank and Equation
// (3)'s split of it: core iterations (S^c) run while the chain's messages are
// in flight, halo iterations (S^h) after the wait.
type loopSplit struct {
	end  int     // ExecEnd(HE_i): the loop executes [0, end)
	nx   nxRange // non-execute refresh range (HN_i > 0), iterated after [0, end)
	core int     // leading iterations of [0, end) that do not wait
}

// halo is S^h: the rest of the executed range plus the non-execute refresh.
func (s loopSplit) halo() int { return s.end - s.core + s.nx.hi - s.nx.lo }

// splitLoop derives the split of the loop at chain position pos over set
// layout sl under the plan's halo extensions (he, hn). It is the only
// derivation — compileChain takes the program's ranges from it, chainPrepRank
// the executor's clock arithmetic and Equation (3) parameters, caCandidate
// the counts it scores a policy by — so the tuner prices what the executor
// runs. A chain that exchanges nothing waits for nothing: all of it is core.
func splitLoop(sl *halo.SetLayout, he, hn, pos int, exchanging bool) loopSplit {
	s := loopSplit{end: sl.ExecEnd(he)}
	s.core = s.end
	if exchanging {
		s.core = min(sl.CorePrefix(pos), s.end)
	}
	if hn > 0 {
		s.nx = nxRange{sl.NonexecEnd(0), sl.NonexecEnd(hn)}
	}
	return s
}

// loopProgram is one (loop, rank) of a compiled chain: the view-slot table
// and the iteration ranges the plan's halo extensions select.
type loopProgram struct {
	slots []viewSlot // one per kernel view, in view order
	// order is the set layout's canonical ExecOrder, walked up to end, for
	// loops with indirection; nil for all-direct loops, whose iterations
	// touch only their own element and so run [0, end) in storage order.
	order []int32
	end   int // ExecEnd(HE_i)
	// nx is the non-execute refresh range (all-direct loops with HN_i > 0).
	nx nxRange
}

// chainProgram is the executable half of a chain plan: per rank, per loop,
// a flat view-slot table. It holds only what ca.AppendChainSignature covers
// — sets, dats, maps, slots, modes, halo extensions, all resolved against
// this backend's layouts and storage, neither of which ever moves. What the
// signature does not cover is not cached: Kernel.Fn and every global's Gbl
// buffer are read from the live core.Loop at each execution. The apps here
// declare their loops once, but a library user may rebuild a loop per call,
// with a new closure or reduction buffer under the same name.
type chainProgram struct {
	ranks [][]loopProgram // [rank][loop]
	// loops and slots back ranks and every loopProgram.slots, so recompiling
	// into the same chainProgram (NoPlanCache) reuses the storage.
	loops []loopProgram
	slots []viewSlot
}

// programFor returns the executable program of a chain that passed the
// depth and length gates: the cached entry's, compiled on the entry's first
// execution, or — with the cache off (nil entry) — one compiled for this
// execution into backend scratch. Either way compilation validates the
// program before the chain's exchange moves a value; a validation panic
// leaves the entry without a program, so a retry on this backend
// re-validates.
func (b *Backend) programFor(e *planEntry, loops []core.Loop, plan ca.Plan) *chainProgram {
	if e == nil {
		b.compileChain(&b.scr.uncachedProg, loops, plan)
		return &b.scr.uncachedProg
	}
	if e.prog == nil {
		p := new(chainProgram)
		b.compileChain(p, loops, plan)
		e.prog = p
	}
	return e.prog
}

// compileChain fills p with the chain's per-(rank, loop) view-slot tables
// and checks, once, what the interpreter checked per element: every map
// entry a loop will dereference over [0, ExecEnd(HE_i)) is present in the
// rank's halo. A chain that under-reaches panics with *HaloDepthError here,
// on the caller's goroutine and in rank, loop, view, iteration order —
// before any dat changes. Correctly built layouts close every execute
// shell under every map, so the check fails only on a layout that does not
// hold what its Depth promises.
func (b *Backend) compileChain(p *chainProgram, loops []core.Loop, plan ca.Plan) {
	nparts, n := b.cfg.NParts, len(loops)
	nviews := 0
	for _, l := range loops {
		nviews += l.NumViews()
	}
	p.ranks = slices.Grow(p.ranks[:0], nparts)[:nparts]
	p.loops = slices.Grow(p.loops[:0], nparts*n)[:nparts*n]
	p.slots = slices.Grow(p.slots[:0], nparts*nviews)[:nparts*nviews]
	free := p.slots
	for r := range p.ranks {
		lay := b.layouts[r]
		p.ranks[r] = p.loops[r*n : (r+1)*n]
		for i, l := range loops {
			sl := lay.SetL(l.Set)
			lp := &p.ranks[r][i]
			// A program holds ranges, not counts: exchanging or not is the same.
			sp := splitLoop(sl, plan.HE[i], plan.HN[i], i, false)
			*lp = loopProgram{end: sp.end, nx: sp.nx}
			if l.HasIndirection() {
				lp.order = sl.ExecOrder()
			}
			nv := l.NumViews()
			lp.slots, free = free[:nv:nv], free[nv:]
			v := 0
			for ai, a := range l.Args {
				switch {
				case a.IsGlobal():
					lp.slots[v] = viewSlot{kind: viewGlobal, arg: int32(ai)}
					v++
				case !a.Indirect():
					lp.slots[v] = viewSlot{kind: viewDirect, dim: a.Dat.Dim, data: b.dats[r][a.Dat.ID]}
					v++
				default:
					s := viewSlot{kind: viewIndirect, dim: a.Dat.Dim, data: b.dats[r][a.Dat.ID],
						maps: lay.MapL(a.Map), arity: int32(a.Map.Arity)}
					first, last := a.Idx, a.Idx
					if a.Idx == core.VecAll {
						first, last = 0, a.Map.Arity-1
					}
					for slot := first; slot <= last; slot++ {
						for it := 0; it < lp.end; it++ {
							if s.maps[it*a.Map.Arity+slot] < 0 {
								panic(&HaloDepthError{Rank: r, Loop: l.Kernel.Name, Iter: it, Map: a.Map.Name, Slot: slot})
							}
						}
						s.slot = int32(slot)
						lp.slots[v] = s
						v++
					}
				}
			}
		}
	}
}

// run executes the compiled loop: every view bound from the slot table —
// no closure, no core.Arg copy, no per-element absent-entry check (compile
// did it) — and the kernel and global buffers taken from the live loop l.
// Loops with indirection walk the canonical ExecOrder (ascending global
// index), so indirect increments accumulate identically on every rank and
// execution policy and match the sequential reference bit for bit;
// all-direct loops and the non-execute refresh range write elementwise and
// run in storage order.
func (lp *loopProgram) run(l core.Loop, views [][]float64) {
	fn := l.Kernel.Fn
	for v := range lp.slots {
		if s := &lp.slots[v]; s.kind == viewGlobal {
			views[v] = l.Args[s.arg].Gbl
		}
	}
	if lp.order == nil {
		for it := 0; it < lp.end; it++ {
			lp.bind(views, it)
			fn(views)
		}
	}
	for _, it := range lp.order {
		if it := int(it); it < lp.end {
			lp.bind(views, it)
			fn(views)
		}
	}
	for it := lp.nx.lo; it < lp.nx.hi; it++ {
		lp.bind(views, it)
		fn(views)
	}
}

// bind points the dat views at iteration it.
func (lp *loopProgram) bind(views [][]float64, it int) {
	for v := range lp.slots {
		s := &lp.slots[v]
		switch s.kind {
		case viewDirect:
			views[v] = s.data[it*s.dim : (it+1)*s.dim]
		case viewIndirect:
			e := int(s.maps[it*int(s.arity)+int(s.slot)])
			views[v] = s.data[e*s.dim : (e+1)*s.dim]
		}
	}
}
