package halo

import (
	"fmt"

	"op2ca/internal/core"
)

// ImportRange is a contiguous run of halo elements imported from one owner
// rank; imports are contiguous because shell elements are grouped by owner.
type ImportRange struct {
	Rank  int32 // owning rank
	Start int32 // absolute local index of the first element
	Count int32
}

// ExportList names the locally-owned elements one neighbour imports, in the
// exact order the neighbour stores them, so the receiver unpacks with a
// single contiguous copy.
type ExportList struct {
	Rank   int32 // destination rank
	Locals []int32
}

// SetLayout is one rank's local view of one set: local numbering
// [owned | exec shells 1..Depth | non-exec shells 1..Depth] with owned
// elements sorted by decreasing interior level and shell elements grouped
// by owner. It refers to nothing of the program it was built from — the set
// is named, not pointed to — so a kept layout keeps no program alive.
type SetLayout struct {
	// Name is the set's name, for messages.
	Name string

	// L2G maps local to global indices. Its inverse exists only inside
	// Build, as scratch: nothing at run time asks for the local index of a
	// global element.
	L2G []int32

	// NOwned is the number of locally owned elements.
	NOwned int
	// ExecStart[d] is the absolute local index where execute shell d+1
	// begins; ExecStart[0] == NOwned and ExecStart[Depth] is the end of
	// the last execute shell. len == Depth+1.
	ExecStart []int32
	// NonexecStart[d] is the analogue for non-execute shells;
	// NonexecStart[0] == ExecStart[Depth] and NonexecStart[Depth] is the
	// total local size.
	NonexecStart []int32

	// corePrefix[l] is the number of owned elements whose iterations are
	// safe to execute while halo exchanges are in flight when the element
	// is iterated by the l-th loop of a chain (interior level >= 2(l+1)).
	corePrefix []int32

	// ExecOrder lists the local indices of the executable region
	// [0, ExecEnd(Depth)) sorted by ascending global index. Kernels apply
	// their data effects in this order on every rank, so indirect
	// increments accumulate in the same sequence everywhere — owned
	// elements, redundantly computed halo copies and the sequential
	// reference all agree bit for bit, whatever partitioning or execution
	// policy produced them. The virtual-time model is unaffected: it
	// prices iteration counts, not orderings.
	ExecOrder []int32

	// ImportExec[d-1] / ImportNonexec[d-1] are the owner-grouped import
	// runs of shell d.
	ImportExec    [][]ImportRange
	ImportNonexec [][]ImportRange
	// ExportExec[d-1] / ExportNonexec[d-1] mirror the imports on the
	// sending side, sorted by destination rank.
	ExportExec    [][]ExportList
	ExportNonexec [][]ExportList
}

// Total returns the local element count including all halo shells.
func (sl *SetLayout) Total() int { return int(sl.NonexecStart[len(sl.NonexecStart)-1]) }

// NExec returns the number of execute-halo elements up to shell depth d.
func (sl *SetLayout) NExec(d int) int { return int(sl.ExecStart[d]) - sl.NOwned }

// ExecEnd returns the absolute local index one past execute shell d;
// iterating [0, ExecEnd(d)) executes owned plus execute shells 1..d.
func (sl *SetLayout) ExecEnd(d int) int { return int(sl.ExecStart[d]) }

// NNonexec returns the number of non-execute-halo elements up to shell d.
func (sl *SetLayout) NNonexec(d int) int {
	return int(sl.NonexecStart[d] - sl.NonexecStart[0])
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

// Layout is one rank's local view of the whole program.
type Layout struct {
	Rank   int
	NParts int
	// Depth is the number of halo shells built (the r of the paper).
	Depth int
	// MaxChainLen is the longest loop-chain the core prefixes support.
	MaxChainLen int
	// Sets is indexed by core.Set.ID.
	Sets []*SetLayout
	// Maps is indexed by core.Map.ID: localized map values for the
	// executable region of each From set, -1 where the target is not
	// present locally (only reachable beyond the built halo depth).
	Maps [][]int32
	// Neighbours lists the ranks this rank exchanges halos with,
	// ascending.
	Neighbours []int32
}

// SetL returns the local layout of s.
func (l *Layout) SetL(s *core.Set) *SetLayout { return l.Sets[s.ID] }

// MapL returns the localized values of m.
func (l *Layout) MapL(m *core.Map) []int32 { return l.Maps[m.ID] }

func (l *Layout) String() string {
	return fmt.Sprintf("layout(rank %d/%d, depth %d)", l.Rank, l.NParts, l.Depth)
}
