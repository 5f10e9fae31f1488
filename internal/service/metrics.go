package service

import (
	"io"
	"sort"

	"op2ca/internal/obs"
)

// WriteMetrics renders the service counters and gauges in Prometheus
// text exposition format, reusing the repo's metrics plumbing
// (obs.MetricsWriter) so the server's /metrics endpoint speaks the same
// dialect as op2ca-bench -metrics.
func (s *Service) WriteMetrics(w io.Writer) error {
	mw := obs.NewMetricsWriter(w)
	s.mu.Lock()
	defer s.mu.Unlock()

	mw.Declare("op2ca_service_jobs_submitted_total", "counter",
		"Jobs accepted for execution, by tenant.")
	tenants := make([]string, 0, len(s.submitted))
	for t := range s.submitted {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		mw.Sample("op2ca_service_jobs_submitted_total",
			[]obs.Label{{Key: "tenant", Value: t}}, float64(s.submitted[t]))
	}

	mw.Declare("op2ca_service_jobs_rejected_total", "counter",
		"Jobs shed at admission, by reason.")
	mw.Sample("op2ca_service_jobs_rejected_total",
		[]obs.Label{{Key: "reason", Value: "queue_full"}}, float64(s.shedQueue))
	mw.Sample("op2ca_service_jobs_rejected_total",
		[]obs.Label{{Key: "reason", Value: "tenant_quota"}}, float64(s.shedTenant))

	mw.Declare("op2ca_service_jobs_completed_total", "counter",
		"Jobs reaching a terminal state, by state.")
	for _, c := range []struct {
		state string
		n     int
	}{{"done", s.nDone}, {"failed", s.nFailed}, {"cancelled", s.nCancelled}} {
		mw.Sample("op2ca_service_jobs_completed_total",
			[]obs.Label{{Key: "state", Value: c.state}}, float64(c.n))
	}

	mw.Declare("op2ca_service_preemptions_total", "counter",
		"Attempts vacated by preemption (requeued without charging the supervise budget).")
	mw.Sample("op2ca_service_preemptions_total", nil, float64(s.preempts))

	mw.Declare("op2ca_service_restarts_total", "counter",
		"Supervised restarts across all jobs (crash faults, exchange giveups, watchdog trips).")
	mw.Sample("op2ca_service_restarts_total", nil, float64(s.restarts))

	mw.Declare("op2ca_service_ring_generations_total", "counter",
		"Checkpoint generations committed by settled jobs, by whether the file was newly created or a recycled spare.")
	mw.Sample("op2ca_service_ring_generations_total",
		[]obs.Label{{Key: "file", Value: "created"}}, float64(s.ring.Committed-s.ring.Recycled))
	mw.Sample("op2ca_service_ring_generations_total",
		[]obs.Label{{Key: "file", Value: "recycled"}}, float64(s.ring.Recycled))
	mw.Declare("op2ca_service_ring_commit_errors_total", "counter",
		"Checkpoint generations of settled jobs that were staged and failed to commit.")
	mw.Sample("op2ca_service_ring_commit_errors_total", nil, float64(s.ring.CommitErrors))
	mw.Declare("op2ca_service_ring_join_seconds_total", "counter",
		"Time settled jobs spent waiting for a generation's commit before staging the next or settling.")
	mw.Sample("op2ca_service_ring_join_seconds_total", nil, s.ring.Join.Seconds())

	hits, misses, bytes := s.parts.stats()
	mw.Declare("op2ca_service_partition_store_hits_total", "counter",
		"Jobs whose partition assignment an earlier job on the same mesh, partitioner and rank count had left in the store.")
	mw.Sample("op2ca_service_partition_store_hits_total", nil, float64(hits))
	mw.Declare("op2ca_service_partition_store_misses_total", "counter",
		"Jobs that computed their partition assignment.")
	mw.Sample("op2ca_service_partition_store_misses_total", nil, float64(misses))
	mw.Declare("op2ca_service_partition_store_bytes", "gauge",
		"Bytes the stored assignments are charged against the store's budget.")
	mw.Sample("op2ca_service_partition_store_bytes", nil, float64(bytes))

	lhits, lmisses := s.layouts.Stats()
	mw.Declare("op2ca_service_layout_store_hits_total", "counter",
		"Jobs built on halo layouts an earlier job of the same mesh, partition, app, depth and chain length had left in the store; a job's restarts reuse its first attempt's.")
	mw.Sample("op2ca_service_layout_store_hits_total", nil, float64(lhits))
	mw.Declare("op2ca_service_layout_store_misses_total", "counter",
		"Jobs that derived ownership and built their halo layouts.")
	mw.Sample("op2ca_service_layout_store_misses_total", nil, float64(lmisses))

	ihits, imisses := s.instances.Stats()
	mw.Declare("op2ca_service_instance_store_hits_total", "counter",
		"Jobs built on the mesh, hierarchy and declared app an earlier job of the same mesh size, app and multigrid depth had left in the store.")
	mw.Sample("op2ca_service_instance_store_hits_total", nil, float64(ihits))
	mw.Declare("op2ca_service_instance_store_misses_total", "counter",
		"Jobs that generated their mesh and declared their app.")
	mw.Sample("op2ca_service_instance_store_misses_total", nil, float64(imisses))

	slabs := s.slabs.Stats()
	mw.Declare("op2ca_service_slab_hits_total", "counter",
		"Storage requests of job backends (their dats) served by a slab a closed backend had returned.")
	mw.Sample("op2ca_service_slab_hits_total", nil, float64(slabs.Hits))
	mw.Declare("op2ca_service_slab_misses_total", "counter",
		"Storage requests of job backends that allocated a new slab.")
	mw.Sample("op2ca_service_slab_misses_total", nil, float64(slabs.Misses))
	mw.Declare("op2ca_service_slab_lent_bytes", "gauge",
		"Bytes of slab storage running backends hold now.")
	mw.Sample("op2ca_service_slab_lent_bytes", nil, float64(slabs.LentBytes))

	mw.Declare("op2ca_service_queue_depth", "gauge",
		"Jobs awaiting placement.")
	mw.Sample("op2ca_service_queue_depth", nil, float64(len(s.queue)))

	running := 0
	for _, wk := range s.workers {
		if wk.busy != nil {
			running++
		}
	}
	mw.Declare("op2ca_service_jobs_running", "gauge", "Attempts executing now.")
	mw.Sample("op2ca_service_jobs_running", nil, float64(running))

	mw.Declare("op2ca_service_workers", "gauge", "Executor pool size.")
	mw.Sample("op2ca_service_workers", nil, float64(len(s.workers)))

	mw.Declare("op2ca_service_worker_virtual_seconds_total", "counter",
		"Virtual seconds of completed attempts, by worker (the placement load signal).")
	mw.Declare("op2ca_service_worker_jobs_total", "counter",
		"Attempts settled, by worker.")
	for _, wk := range s.workers {
		lbl := []obs.Label{{Key: "worker", Value: wk.name}}
		mw.Sample("op2ca_service_worker_virtual_seconds_total", lbl, wk.load)
		mw.Sample("op2ca_service_worker_jobs_total", lbl, float64(wk.jobs))
	}
	return mw.Flush()
}
