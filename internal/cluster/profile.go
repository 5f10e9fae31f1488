package cluster

import "op2ca/internal/obs/analysis"

// Profile runs the critical-path, communication-matrix and load-imbalance
// analysis over this backend's trace epoch, attaches the result to Stats
// (so Stats.String and WriteMetrics report it) and returns it. It requires
// a Tracer — an untraced backend profiles to nil. The analysis reads the
// recorded spans and edges only; it never touches the clocks, so a
// profiled run stays bit-identical to an unprofiled one.
func (b *Backend) Profile() *analysis.Profile {
	if !b.tracer.Enabled() {
		return nil
	}
	p := analysis.Analyze(b.tracer, b.epoch)
	b.stats.Profile = p
	return p
}
