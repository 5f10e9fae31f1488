package cluster

// workerpool.go is the persistent fork/join executor behind forEachRank.
// Ranks are independent between exchanges (they only touch rank-local
// state), so every parallel region — loop bodies, pack, unpack, plan
// application — is a fork at a rank range and a join at the next
// synchronisation point, the shape HPX-OP2 (arXiv:1703.09264) gives OP2's
// bulk-synchronous loops. Two properties distinguish the pool from the
// naive goroutine-per-rank fan-out it replaced:
//
//   - Bounded concurrency. The pool owns min(GOMAXPROCS, NParts)-1
//     long-lived worker goroutines (the dispatching goroutine is the last
//     executor); a fork hands out contiguous rank chunks from an atomic
//     cursor, so 1024 simulated ranks on 8 cores run as 8 OS-schedulable
//     workers pulling 32-rank chunks instead of 1024 short-lived goroutines
//     churned per fork point.
//
//   - Panic transparency. A panic on a worker goroutine — the
//     *HaloDepthError runLoopOnRank raises, a *faults.CrashError raised
//     inside a kernel, any typed panic crossing a fork — cannot
//     be recovered by the caller's deferred recover and would abort the
//     process with a raw goroutine dump. The pool captures the first panic
//     (value and worker stack), lets the join complete, and re-raises the
//     original value on the dispatching goroutine, so recover-based callers
//     (supervise.Catch and CatchCrash, tests asserting on typed panics)
//     behave identically in serial and parallel modes.
//
// The contract of a forked function is unchanged: it must only touch state
// owned by its rank argument (plus read-only shared state published before
// the fork; the channel handoff gives the happens-before edge).

import (
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// rankPool is a persistent set of worker goroutines executing rank ranges.
// One pool serves one Backend; forks never nest, so the pool owns a single
// reusable run descriptor and dispatch allocates nothing.
type rankPool struct {
	// workers is the executor count including the dispatching goroutine;
	// the pool spawns workers-1 background goroutines.
	workers int
	work    chan *poolRun
	stop    chan struct{}
	once    sync.Once
	exited  sync.WaitGroup
	run     poolRun
}

// poolRun is one fork: the function, the rank range handed out in
// contiguous chunks via the atomic cursor, and the first captured panic.
type poolRun struct {
	f      func(w, r int)
	nparts int64
	chunk  int64
	next   atomic.Int64
	wg     sync.WaitGroup

	mu         sync.Mutex
	panicVal   any
	panicStack []byte
}

// newRankPool builds a pool of the given executor count (>= 1) and spawns
// its background workers. Worker 0 is the dispatching goroutine; background
// workers take ids 1..workers-1 (the id indexes per-worker scratch).
func newRankPool(workers int) *rankPool {
	p := &rankPool{
		workers: workers,
		work:    make(chan *poolRun),
		stop:    make(chan struct{}),
	}
	p.exited.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go p.worker(w)
	}
	return p
}

// worker is one background executor: it blocks between forks and joins the
// runs handed to it.
func (p *rankPool) worker(w int) {
	defer p.exited.Done()
	for {
		select {
		case <-p.stop:
			return
		case run := <-p.work:
			run.chunks(w)
			run.wg.Done()
		}
	}
}

// close stops the background workers and waits for them to exit.
// Idempotent; in-flight forks complete first because the dispatcher holds no
// new sends after the join.
func (p *rankPool) close() {
	p.once.Do(func() { close(p.stop) })
	p.exited.Wait()
}

// forEach executes f(w, r) for every rank r in [0, nparts), fanning
// contiguous chunks out to the pool and joining before returning. w is the
// executing worker's id, indexing per-worker scratch. If any invocation
// panics, the first panic value is re-raised here, on the caller's
// goroutine, after all workers have joined.
func (p *rankPool) forEach(nparts int, f func(w, r int)) {
	run := &p.run
	run.f = f
	run.nparts = int64(nparts)
	// Chunks ~4x finer than the worker count balance straggler ranks
	// (fault-injected or surface-heavy partitions) without measurable
	// cursor contention; each chunk claim is one atomic add.
	chunk := int64(nparts) / int64(4*p.workers)
	if chunk < 1 {
		chunk = 1
	}
	run.chunk = chunk
	run.next.Store(0)
	run.panicVal = nil
	run.panicStack = nil
	helpers := p.workers - 1
	if nparts-1 < helpers {
		helpers = nparts - 1
	}
	run.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		p.work <- run
	}
	run.chunks(0)
	run.wg.Wait()
	run.f = nil
	if pv := run.panicVal; pv != nil {
		// Re-raise the first worker panic with its original value, so
		// typed panics (*faults.CrashError, *CancelledError) recover
		// identically to serial execution. The worker-side stack is kept
		// in run.panicStack for diagnostics.
		panic(pv)
	}
}

// chunks claims and executes rank chunks until the range is exhausted. A
// panic inside f stops this worker's participation (remaining chunks drain
// to the other workers), records the first panic, and lets the join
// proceed.
func (run *poolRun) chunks(w int) {
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			run.mu.Lock()
			if run.panicVal == nil {
				run.panicVal = r
				run.panicStack = stack
			}
			run.mu.Unlock()
		}
	}()
	for {
		start := run.next.Add(run.chunk) - run.chunk
		if start >= run.nparts {
			return
		}
		end := start + run.chunk
		if end > run.nparts {
			end = run.nparts
		}
		for r := start; r < end; r++ {
			run.f(w, int(r))
		}
	}
}
