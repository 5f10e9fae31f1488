package halo

import (
	"fmt"

	"op2ca/internal/core"
)

// Kind names one of the two halo kinds.
type Kind uint8

const (
	// Exec is the execute halo: foreign elements a rank computes redundantly.
	Exec Kind = iota
	// Nonexec is the non-execute halo: foreign elements a rank only reads.
	Nonexec
)

// Range is a contiguous run of one rank's halo traffic with another rank,
// Rank. An import range is Count halo elements received from their owner
// Rank, stored from local index Start on; imports are contiguous because
// shell elements are grouped by owner. An export list is the locally owned
// elements Rank imports, in the exact order Rank stores them, so the receiver
// unpacks with a single contiguous copy: the local indices
// Layout.ExportLocals()[Start:Start+Count].
type Range struct {
	Rank  int32
	Start int32
	Count int32
}

// SetLayout is one rank's local view of one set: local numbering
// [owned | exec shells 1..Depth | non-exec shells 1..Depth] with owned
// elements sorted by decreasing interior level and shell elements grouped
// by owner. It refers to nothing of the program it was built from — the set
// is named, not pointed to — so a kept layout keeps no program alive. Its
// arrays are windows of the flat, pointer-free slabs Build carved the rank's
// layout from, read through the accessors below.
type SetLayout struct {
	// Name is the set's name, for messages.
	Name string
	// NOwned is the number of locally owned elements.
	NOwned int

	// l2g maps local to global indices (see L2G).
	l2g []int32
	// execOrder is the canonical iteration order (see ExecOrder).
	execOrder []int32
	// execStart[d] is the absolute local index where execute shell d+1
	// begins; execStart[0] == NOwned and execStart[Depth] is the end of the
	// last execute shell. nonexecStart[d] is the analogue for non-execute
	// shells; nonexecStart[0] == execStart[Depth] and nonexecStart[Depth] is
	// the total local size. Both have Depth+1 entries.
	execStart, nonexecStart []int32
	// corePrefix[l] is the number of owned elements whose iterations are
	// safe to execute while halo exchanges are in flight when the element
	// is iterated by the l-th loop of a chain (interior level >= 2(l+1)).
	corePrefix []int32
	// runs holds the set's import ranges and then its export lists, each
	// kind-major and shell by shell; runAt[i] is where run list i begins —
	// i = kind*Depth + d-1 for the imports of shell d, 2*Depth plus that for
	// the exports — and runAt[4*Depth] is len(runs).
	runs  []Range
	runAt []int32
}

// L2G maps local to global indices. Its inverse exists only inside Build, as
// scratch: nothing at run time asks for the local index of a global element.
func (sl *SetLayout) L2G() []int32 { return sl.l2g }

// ExecOrder lists the local indices of the executable region
// [0, ExecEnd(Depth)) sorted by ascending global index. Kernels apply their
// data effects in this order on every rank, so indirect increments
// accumulate in the same sequence everywhere — owned elements, redundantly
// computed halo copies and the sequential reference all agree bit for bit,
// whatever partitioning or execution policy produced them. The virtual-time
// model is unaffected: it prices iteration counts, not orderings.
func (sl *SetLayout) ExecOrder() []int32 { return sl.execOrder }

// depth is the number of shells the layout was built with.
func (sl *SetLayout) depth() int { return len(sl.execStart) - 1 }

// Imports returns the owner-grouped import ranges of shell d (1..Depth) of
// kind k, ascending by owner.
func (sl *SetLayout) Imports(k Kind, d int) []Range {
	return sl.runList(int(k)*sl.depth() + d - 1)
}

// Exports returns the export lists of shell d (1..Depth) of kind k — the
// mirror of the importers' ranges on the sending side — ascending by
// destination rank.
func (sl *SetLayout) Exports(k Kind, d int) []Range {
	return sl.runList((2+int(k))*sl.depth() + d - 1)
}

// runList is run list i of runs (see runAt).
func (sl *SetLayout) runList(i int) []Range {
	lo, hi := sl.runAt[i], sl.runAt[i+1]
	return sl.runs[lo:hi:hi]
}

// Total returns the local element count including all halo shells.
func (sl *SetLayout) Total() int { return int(sl.nonexecStart[len(sl.nonexecStart)-1]) }

// NExec returns the number of execute-halo elements up to shell depth d.
func (sl *SetLayout) NExec(d int) int { return int(sl.execStart[d]) - sl.NOwned }

// ExecEnd returns the absolute local index one past execute shell d;
// iterating [0, ExecEnd(d)) executes owned plus execute shells 1..d.
func (sl *SetLayout) ExecEnd(d int) int { return int(sl.execStart[d]) }

// NonexecEnd returns the absolute local index one past non-execute shell d;
// NonexecEnd(0) == ExecEnd(Depth) and NonexecEnd(Depth) == Total().
func (sl *SetLayout) NonexecEnd(d int) int { return int(sl.nonexecStart[d]) }

// NNonexec returns the number of non-execute-halo elements up to shell d.
func (sl *SetLayout) NNonexec(d int) int {
	return int(sl.nonexecStart[d] - sl.nonexecStart[0])
}

// CorePrefix returns the number of leading owned elements executable before
// the halo wait by the l-th loop of a chain (l = 0 for standalone loops).
func (sl *SetLayout) CorePrefix(l int) int {
	if l < 0 {
		l = 0
	}
	if l >= len(sl.corePrefix) {
		l = len(sl.corePrefix) - 1
	}
	return int(sl.corePrefix[l])
}

// Layout is one rank's local view of the whole program. Everything it holds
// beyond the fields below lies in a few flat []int32 and []Range slabs (see
// Storage); it holds pointers only in Sets and in the slices it cuts from
// them, a constant number of each per set.
type Layout struct {
	Rank   int
	NParts int
	// Depth is the number of halo shells built (the r of the paper).
	Depth int
	// MaxChainLen is the longest loop-chain the core prefixes support.
	MaxChainLen int
	// Sets is indexed by core.Set.ID.
	Sets []SetLayout

	// maps holds the localized map values, map after map: mapAt[m.ID] is
	// where m's begin and mapAt[len(prog.Maps)] is len(maps).
	maps, mapAt []int32
	// locals holds every export list's local indices (see Range).
	locals []int32
	// neighbours are the ranks this rank exchanges halos with, ascending.
	neighbours []int32
}

// SetL returns the local layout of s.
func (l *Layout) SetL(s *core.Set) *SetLayout { return &l.Sets[s.ID] }

// MapL returns the localized values of m for the executable region of its
// From set, -1 where the target is not present locally (only reachable
// beyond the built halo depth).
func (l *Layout) MapL(m *core.Map) []int32 {
	lo, hi := l.mapAt[m.ID], l.mapAt[m.ID+1]
	return l.maps[lo:hi:hi]
}

// ExportLocals is the array every export list of the rank indexes (see
// Range): the lists of each set, kind and shell, one after another.
func (l *Layout) ExportLocals() []int32 { return l.locals }

// Neighbours lists the ranks this rank exchanges halos with, ascending.
func (l *Layout) Neighbours() []int32 { return l.neighbours }

func (l *Layout) String() string {
	return fmt.Sprintf("layout(rank %d/%d, depth %d)", l.Rank, l.NParts, l.Depth)
}
