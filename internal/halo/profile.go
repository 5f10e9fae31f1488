package halo

import (
	"fmt"
	"strings"

	"op2ca/internal/core"
)

// SetProfile summarises one set's halo shells across ranks: the quantities
// that determine communication-avoiding profitability in the paper's
// Section 3.2 (core sizes shrink and shell sizes grow with depth; the
// exec-shell growth ratio bounds the redundant-computation cost of each
// extra halo layer).
type SetProfile struct {
	Set *core.Set
	// AvgOwned is the mean owned elements per rank.
	AvgOwned float64
	// AvgCore is the mean level-0 core prefix (iterations overlappable
	// with communication by a standalone loop).
	AvgCore float64
	// AvgExec[d-1] and AvgNonexec[d-1] are the mean shell-d sizes.
	AvgExec    []float64
	AvgNonexec []float64
	// MaxExec[d-1] is the largest shell-d execute halo on any rank.
	MaxExec []int
}

// Profile computes per-set shell statistics over all ranks' layouts.
func Profile(prog *core.Program, layouts []*Layout) []SetProfile {
	if len(layouts) == 0 {
		return nil
	}
	depth := layouts[0].Depth
	profiles := make([]SetProfile, 0, len(prog.Sets))
	for _, set := range prog.Sets {
		p := SetProfile{
			Set:        set,
			AvgExec:    make([]float64, depth),
			AvgNonexec: make([]float64, depth),
			MaxExec:    make([]int, depth),
		}
		for _, l := range layouts {
			sl := l.SetL(set)
			p.AvgOwned += float64(sl.NOwned)
			p.AvgCore += float64(sl.CorePrefix(0))
			for d := 1; d <= depth; d++ {
				e := sl.NExec(d) - sl.NExec(d-1)
				p.AvgExec[d-1] += float64(e)
				if e > p.MaxExec[d-1] {
					p.MaxExec[d-1] = e
				}
				p.AvgNonexec[d-1] += float64(sl.NNonexec(d) - sl.NNonexec(d-1))
			}
		}
		n := float64(len(layouts))
		p.AvgOwned /= n
		p.AvgCore /= n
		for d := 0; d < depth; d++ {
			p.AvgExec[d] /= n
			p.AvgNonexec[d] /= n
		}
		profiles = append(profiles, p)
	}
	return profiles
}

// GrowthRatio returns the shell-d to shell-(d-1) execute-halo size ratio
// (d >= 2), the redundancy growth factor of each extra halo layer; 0 when
// the shallower shell is empty.
func (p SetProfile) GrowthRatio(d int) float64 {
	if d < 2 || d > len(p.AvgExec) || p.AvgExec[d-2] == 0 {
		return 0
	}
	return p.AvgExec[d-1] / p.AvgExec[d-2]
}

// String renders the profile as one line per depth.
func (p SetProfile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: owned %.0f (core %.0f)", p.Set.Name, p.AvgOwned, p.AvgCore)
	for d := 0; d < len(p.AvgExec); d++ {
		fmt.Fprintf(&b, " | d%d exec %.0f nonexec %.0f", d+1, p.AvgExec[d], p.AvgNonexec[d])
	}
	return b.String()
}
