package cluster

// plancache.go is the inspect-once/execute-many half of the runtime's
// inspector/executor split. Inspection cost — Algorithm 3's halo-layer
// analysis, plan construction, and the derivation of every pack/unpack
// index — is paid once per distinct chain and amortised over the many
// executions of that chain (MG-CFD and Hydra re-execute the same handful of
// chains every multigrid cycle). The exchange schedules a plan's executions
// replay are memoised separately, per backend (see exchange.go): a schedule
// depends on the spec set and the layouts, not on the plan that asked.

import (
	"op2ca/internal/ca"
	"op2ca/internal/core"
)

// planKey identifies one chain plan: the chain name plus the structural
// signature of its loops and configured halo-extension overrides. The
// plans map itself is keyed by the two fields joined with a NUL (see
// planMapKey), so steady-state lookups build the key in reusable scratch
// bytes and allocate nothing; planKey survives as the decomposed form the
// checkpoint container stores and warmPlans is keyed by.
type planKey struct {
	chain string
	sig   string
}

// planEntry is one cached inspection result.
type planEntry struct {
	key    planKey
	mapKey string // key.chain + "\x00" + key.sig, the plans-map key
	plan   ca.Plan
	err    error
	// specs is plan.Required as exchange specs, precomputed once.
	specs []exchangeSpec
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
	key := planKey{chain: name, sig: string(b.scr.sigBuf)}
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
	e := &planEntry{key: key, mapKey: key.chain + "\x00" + key.sig}
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
