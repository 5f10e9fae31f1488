// Package service turns the simulated-cluster executor into a
// multi-tenant job service: callers submit mesh/chain/config job specs,
// an admission controller queues them (shedding load once the queue or a
// tenant's share of it is full), and a pool of workers — each standing in
// for a cluster node that can host one simulated MPI run at a time —
// executes them least-loaded-first.
//
// Every job runs under its own supervisor and checkpoint generation ring
// (internal/supervise, internal/checkpoint), which makes jobs both
// self-healing and preemptible: an injected crash fault consumes
// supervised-restart budget and the job resumes from its newest valid
// generation on a different worker, while a preemption cancels the
// running attempt cooperatively (cluster.Cancel) and requeues the job —
// without charging the restart budget — for a replacement worker to
// resume. Canonical-order execution makes the served results bitwise
// identical to a direct run of the same spec (RunDirect), which is the
// package's test oracle.
//
// Jobs on one mesh, partitioner and rank count partition it once: the
// service keeps the assignments its jobs computed in a byte-bounded store
// of its own (partStore), which a later job's first attempt reads its
// partition from.
//
// cmd/op2ca-server exposes a Service over HTTP; see NewHandler for the
// route table.
package service
