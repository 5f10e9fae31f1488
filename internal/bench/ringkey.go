package bench

import (
	"fmt"
	"hash/fnv"

	"op2ca/internal/checkpoint"
)

// RingSpec returns spec with its path keyed by this configuration's
// workload fingerprint. op2ca-bench resumes by default from a leftover
// ring at the -checkpoint path; without the key, a ring written by an
// unrelated earlier invocation (same path, same experiment labels,
// different mesh sizes or iteration count) would be adopted silently and
// the resumed run would complete with the wrong workload's results. With
// the key, two invocations share a ring path exactly when their results
// are interchangeable. The key also covers every experiment-wide knob the
// cluster-level checkpoint fingerprint covers (AutoTune, Overlap, the
// message-fault plan, the snapshot format version): sharing a path across
// one of those would adopt a ring whose snapshots the restore then refuses —
// or, for a ring an older format left behind, quarantines one by one.
//
// The fingerprint deliberately excludes:
//   - crash clauses (and any fault plan reduced to injecting nothing once
//     they are stripped): a supervised rerun adds or extends the crash
//     schedule of the invocation it is recovering, and must adopt that
//     invocation's ring — faults.Plan.MessageFaults, the rule the
//     cluster-level checkpoint fingerprint applies too;
//   - Parallel: host-side threading never changes results or virtual
//     clocks (canonical-order execution is the repo-wide oracle);
//   - checkpoint cadence and retention (Every/Keep): they shape when
//     snapshots are taken, not what the workload computes.
func (c Config) RingSpec(spec checkpoint.Spec) checkpoint.Spec {
	h := fnv.New64a()
	fmt.Fprintf(h, "v=%d;n8=%d;n24=%d;rs=%g;it=%d;at=%t;ov=%t;faults=%s",
		checkpoint.Version, c.Nodes8M, c.Nodes24M, c.RankScale, c.Iters, c.AutoTune, c.Overlap, c.Faults.MessageFaults())
	spec.Path = fmt.Sprintf("%s.%016x", spec.Path, h.Sum64())
	return spec
}
