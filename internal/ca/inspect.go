// Package ca implements the inspection phase of the communication-avoiding
// back-end (the paper's Section 3): identifying the dats a loop-chain must
// exchange, computing per-loop halo extensions (Algorithm 3), and assembling
// the chain plan the distributed executor (package cluster) runs with
// Algorithm 2.
//
// Two halo-extension analyses are provided. CalcHaloLayers is the paper's
// Algorithm 3, transcribed literally; it reproduces the published extensions
// for the MG-CFD synthetic chain and the gradl/vflux/iflux/jacob chains of
// Tables 3-4. SafeAnalysis is a conservative demand-propagation analysis
// that is provably sufficient for exact results under redundant computation;
// it is used to validate configured extensions. The paper's configuration
// file supplies per-loop maximum halo extensions (Section 3.4); package
// chaincfg parses it and its values override the automatic analysis, exactly
// as in the paper's tool flow.
package ca

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"op2ca/internal/core"
)

// CalcHaloLayers is Algorithm 3 of the paper: walk the chain backwards once
// per halo-exchanged dat, tracking the accumulated halo extension, and take
// the per-loop maximum over dats. The returned slice holds one extension per
// loop (>= 1).
func CalcHaloLayers(loops []core.Loop) []int {
	he := make([]int, len(loops))
	for i := range he {
		he[i] = 1
	}
	for _, d := range chainDats(loops) {
		haloExt := 0
		indRd := false
		for l := len(loops) - 1; l >= 0; l-- {
			hed := 1
			arg, accessed := datAccess(loops[l], d)
			if accessed {
				switch {
				case indRd && arg.Mode.Writes():
					// A write (OP_WRITE, OP_INC or OP_RW) feeding a later
					// indirect read: extend by one layer.
					hed = haloExt + 1
					haloExt = 0
					indRd = false
				case arg.Indirect() && (arg.Mode == core.Read || arg.Mode == core.ReadWrite):
					// Consecutive indirect reads share one layer of demand;
					// only a write feeding a read extends the halo. (This is
					// the reading of Algorithm 3 consistent with the paper's
					// published extensions: the synthetic MG-CFD chain has
					// r = 2 at every loop count, and Table 3's period chain
					// keeps HE = 1 across its repeated reads.)
					if !indRd {
						haloExt++
					}
					hed = haloExt
					indRd = true
				case !arg.Indirect() && (arg.Mode == core.Read || arg.Mode == core.ReadWrite):
					hed = 1
					haloExt = 0
					indRd = false
				}
			}
			if hed > he[l] {
				he[l] = hed
			}
		}
	}
	return he
}

// SafeAnalysis computes per-loop halo extensions by backward demand
// propagation over both halo kinds. A loop indirectly writing a dat that
// later loops need valid on shells <= D must execute over D+1 execute
// shells (it refreshes execute and non-execute copies one shell shallower
// than its depth); a loop writing only directly refreshes exactly the
// shells it iterates, and — having no maps to localise — may additionally
// iterate non-execute shells (the PyOP2-style direct halo execution),
// reported in hn. The result is always sufficient for bit-reproducible
// redundant computation, at the cost of deeper halos than Algorithm 3 on
// some chains.
//
// A chain is rejected when a loop with indirection writes a dat directly
// while a later loop needs that dat's non-execute copies: such copies
// cannot be refreshed by redundant computation (the writer's halo
// iterations stop at the execute shells), so the chain must fall back to
// per-loop execution.
func SafeAnalysis(loops []core.Loop) (he, hn []int, err error) {
	he = make([]int, len(loops))
	hn = make([]int, len(loops))
	type demand struct{ exec, nonexec int }
	demands := map[*core.Dat]demand{}
	for l := len(loops) - 1; l >= 0; l-- {
		allDirect := !loops[l].HasIndirection()
		h, n := 1, 0
		for _, a := range loops[l].Args {
			if a.IsGlobal() || !a.Mode.Writes() {
				continue
			}
			d := demands[a.Dat]
			switch {
			case a.Indirect():
				if need := maxInt(d.exec, d.nonexec) + 1; need > h {
					h = need
				}
			case allDirect:
				if d.exec > h {
					h = d.exec
				}
				if d.nonexec > n {
					n = d.nonexec
				}
			default: // direct write in a loop with indirection
				if d.exec > h {
					h = d.exec
				}
				if d.nonexec > 0 && err == nil {
					err = fmt.Errorf("%w: loop %d (%s) writes %s directly but a later loop reads its non-execute halo copies",
						ErrInfeasible, l, loops[l].Kernel.Name, a.Dat.Name)
				}
			}
		}
		he[l], hn[l] = h, n
		for _, a := range loops[l].Args {
			if a.IsGlobal() {
				continue
			}
			d := demands[a.Dat]
			switch {
			case a.Indirect() && (a.Mode == core.Read || a.Mode == core.ReadWrite):
				d.exec = maxInt(d.exec, h)
				d.nonexec = maxInt(d.nonexec, h)
			case a.Indirect() && a.Mode == core.Inc:
				// Increments need valid base values where results are
				// consumed, one shell shallower than the execution depth.
				d.exec = maxInt(d.exec, h-1)
				d.nonexec = maxInt(d.nonexec, h-1)
			case !a.Indirect() && a.Mode.Reads():
				d.exec = maxInt(d.exec, h)
				if allDirect {
					d.nonexec = maxInt(d.nonexec, n)
				}
			}
			demands[a.Dat] = d
		}
	}
	return he, hn, err
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// chainDats returns the dats accessed anywhere in the chain that are halo
// exchange candidates: indirectly read (OP_READ or OP_RW) by some loop —
// the halo_exch_dats step of Algorithm 2 — in first-access order.
func chainDats(loops []core.Loop) []*core.Dat {
	var dats []*core.Dat
	seen := map[*core.Dat]bool{}
	for _, l := range loops {
		for _, a := range l.Args {
			if a.IsGlobal() || seen[a.Dat] {
				continue
			}
			if a.Indirect() && (a.Mode == core.Read || a.Mode == core.ReadWrite) {
				seen[a.Dat] = true
				dats = append(dats, a.Dat)
			}
		}
	}
	return dats
}

// datAccess returns the access descriptor of dat d in loop l. When a loop
// accesses the same dat through several descriptors (e.g. both map slots),
// the strongest access wins: writes dominate reads, indirect dominates
// direct.
func datAccess(l core.Loop, d *core.Dat) (core.Arg, bool) {
	var best core.Arg
	found := false
	for _, a := range l.Args {
		if a.IsGlobal() || a.Dat != d {
			continue
		}
		if !found {
			best, found = a, true
			continue
		}
		if (a.Mode.Writes() && !best.Mode.Writes()) ||
			(a.Indirect() && !best.Indirect() && a.Mode.Writes() == best.Mode.Writes()) {
			best = a
		}
	}
	return best, found
}

// ErrInfeasible marks chains whose dependencies cannot be satisfied by
// redundant computation over multi-layered halos; the executor falls back
// to per-loop execution.
var ErrInfeasible = errors.New("ca: chain infeasible for communication-avoiding execution")

// ChainSignature returns a comparable fingerprint of everything Inspect
// depends on: each loop's kernel, iteration set and access descriptors, plus
// the configured halo-extension overrides. Within one program, two chains
// with equal signatures produce identical plans, so an executor can inspect
// once and reuse the plan across executions (the inspector/executor
// amortisation the runtime is built around).
func ChainSignature(loops []core.Loop, configHE []int) string {
	return string(AppendChainSignature(nil, loops, configHE))
}

// AppendChainSignature appends the chain signature to dst and returns the
// extended slice. It is the allocation-free form of ChainSignature: callers
// on a hot path (the executor's plan-cache lookup) pass reusable scratch.
// The output is byte-identical to ChainSignature's.
func AppendChainSignature(dst []byte, loops []core.Loop, configHE []int) []byte {
	for _, l := range loops {
		dst = append(dst, l.Kernel.Name...)
		dst = append(dst, '@')
		dst = strconv.AppendInt(dst, int64(l.Set.ID), 10)
		dst = append(dst, '(')
		for _, a := range l.Args {
			if a.IsGlobal() {
				dst = append(dst, 'g')
				dst = strconv.AppendInt(dst, int64(a.Mode), 10)
				dst = append(dst, ',')
				continue
			}
			mapID := -1
			if a.Indirect() {
				mapID = a.Map.ID
			}
			dst = strconv.AppendInt(dst, int64(a.Dat.ID), 10)
			dst = append(dst, '.')
			dst = strconv.AppendInt(dst, int64(mapID), 10)
			dst = append(dst, '.')
			dst = strconv.AppendInt(dst, int64(a.Idx), 10)
			dst = append(dst, '.')
			dst = strconv.AppendInt(dst, int64(a.Mode), 10)
			dst = append(dst, ',')
		}
		dst = append(dst, ')')
	}
	if len(configHE) > 0 {
		// Matches fmt's %v rendering of []int: "[a b c]".
		dst = append(dst, "|he["...)
		for i, he := range configHE {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst = strconv.AppendInt(dst, int64(he), 10)
		}
		dst = append(dst, ']')
	}
	return dst
}

// DatExchange is one dat's contribution to the grouped message exchanged at
// the start of a chain: how many execute and non-execute halo shells of the
// dat must be imported.
type DatExchange struct {
	Dat          *core.Dat
	ExecDepth    int
	NonexecDepth int
}

// Plan is the inspection result for one loop-chain.
type Plan struct {
	Name string
	// HE is the halo extension (execute-shell execution depth) of each
	// loop.
	HE []int
	// HN is the non-execute-shell execution depth of each loop; non-zero
	// only for loops without indirection, which refresh their directly
	// written dats' read-only halo copies by iterating them (they have no
	// maps to localise, so this is always possible).
	HN []int
	// MaxDepth is the deepest halo shell the plan touches.
	MaxDepth int
	// Required lists, per dat, the shell depths that must be valid at
	// chain entry (before filtering against the runtime dirty state).
	Required []DatExchange
}

// Describe renders the plan as a human-readable inspection report: per-loop
// halo extensions and the grouped message's per-dat shell depths.
func (p Plan) Describe(loops []core.Loop) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chain %s: %d loops, max halo depth %d\n", p.Name, len(p.HE), p.MaxDepth)
	for i, l := range loops {
		fmt.Fprintf(&b, "  loop %-20s over %-8s HE=%d", l.Kernel.Name, l.Set.Name, p.HE[i])
		if i < len(p.HN) && p.HN[i] > 0 {
			fmt.Fprintf(&b, " (+%d non-exec shells)", p.HN[i])
		}
		b.WriteByte('\n')
	}
	if len(p.Required) == 0 {
		b.WriteString("  grouped message: none (all halos valid or never read)\n")
		return b.String()
	}
	b.WriteString("  grouped message ships:\n")
	for _, r := range p.Required {
		if r.NonexecDepth == 0 {
			fmt.Fprintf(&b, "    %-12s exec shells 1..%d\n", r.Dat.Name, r.ExecDepth)
			continue
		}
		fmt.Fprintf(&b, "    %-12s exec shells 1..%d, non-exec shells 1..%d\n",
			r.Dat.Name, r.ExecDepth, r.NonexecDepth)
	}
	return b.String()
}

// Inspect builds the chain plan: halo extensions from Algorithm 3, deepened
// where the conservative analysis demands more (exotic chains such as
// repeated increments without intervening reads), then overridden by the
// optional per-loop configured extensions (the paper's configuration file,
// which encodes application knowledge the automatic analyses lack), then
// per-dat required validity depths. configHE may be nil; entries <= 0 mean
// "no override".
func Inspect(name string, loops []core.Loop, configHE []int) (Plan, error) {
	if len(loops) == 0 {
		return Plan{}, fmt.Errorf("ca: chain %q is empty", name)
	}
	for _, l := range loops {
		if l.HasGlobalReduction() {
			return Plan{}, fmt.Errorf("ca: chain %q contains loop %q with a global reduction (a global synchronisation point)",
				name, l.Kernel.Name)
		}
	}
	he := CalcHaloLayers(loops)
	safeHE, hn, err := SafeAnalysis(loops)
	if err != nil {
		return Plan{}, err
	}
	for i, safe := range safeHE {
		if safe > he[i] {
			he[i] = safe
		}
	}
	if configHE != nil {
		if len(configHE) != len(loops) {
			return Plan{}, fmt.Errorf("ca: chain %q has %d loops but %d configured halo extensions",
				name, len(loops), len(configHE))
		}
		for i, v := range configHE {
			if v > 0 {
				he[i] = v
			}
		}
	}
	p := Plan{Name: name, HE: he, HN: hn}
	req := map[*core.Dat]*DatExchange{}
	order := []*core.Dat{}
	need := func(d *core.Dat, exec, nonexec int) {
		r, ok := req[d]
		if !ok {
			r = &DatExchange{Dat: d}
			req[d] = r
			order = append(order, d)
		}
		if exec > r.ExecDepth {
			r.ExecDepth = exec
		}
		if nonexec > r.NonexecDepth {
			r.NonexecDepth = nonexec
		}
	}
	// Grouped-message contents follow the paper's Equation (4): every
	// halo-exchange dat (indirectly read somewhere in the chain, the
	// halo_exch_dats step) ships its halo shells up to the halo extension
	// of each loop that accesses it; directly read dats ship the execute
	// shells their loop iterates (all chained loops, direct ones
	// included, execute over their extension's execute shells).
	exchDats := map[*core.Dat]bool{}
	for _, d := range chainDats(loops) {
		exchDats[d] = true
	}
	for i, l := range loops {
		h, n := he[i], hn[i]
		if h > p.MaxDepth {
			p.MaxDepth = h
		}
		if n > p.MaxDepth {
			p.MaxDepth = n
		}
		for _, a := range l.Args {
			if a.IsGlobal() {
				continue
			}
			switch {
			case a.Indirect() && exchDats[a.Dat]:
				need(a.Dat, h, h)
			case !a.Indirect() && a.Mode.Reads():
				need(a.Dat, h, n)
			}
		}
	}
	for _, d := range order {
		p.Required = append(p.Required, *req[d])
	}
	return p, nil
}
