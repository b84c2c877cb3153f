package moea

import (
	"sync"
	"sync/atomic"
)

// evalChunk is the number of consecutive indices a worker claims per
// cursor bump: large enough to amortize the atomic and avoid false
// sharing on neighboring result slots, small enough to keep the tail of
// a batch load-balanced.
const evalChunk = 8

// evalJob is one evaluation batch handed to the pool. Workers claim
// disjoint chunks of the index space from the atomic cursor and write
// results into the slots they claimed — per-worker result buffers that
// merge into input order by construction. There is no result channel
// and no per-item synchronization: slot i is a pure function of
// genos[i], so the output is deterministic no matter which worker
// claims which chunk.
type evalJob struct {
	genos [][]float64
	out   []*Individual
	next  atomic.Int64
	wg    sync.WaitGroup
}

// evalPool is the per-run evaluation worker pool. Its goroutines are
// started once per optimizer run and fed batches for the run's
// lifetime, replacing the old per-batch pool construction (one
// goroutine spawn per worker per generation) and the unbuffered
// per-item dispatch channel that serialized every evaluation through
// the optimizer goroutine. close() releases the workers; the owning
// run does so before returning, keeping runs leak-free.
type evalPool struct {
	p       Problem
	workers int
	jobs    chan *evalJob // nil in serial mode
}

// newEvalPool starts a pool of `workers` evaluation goroutines for the
// problem. workers <= 1 selects the serial mode: no goroutines, every
// evaluation runs inline on the caller with worker index 0.
func newEvalPool(p Problem, workers int) *evalPool {
	pl := &evalPool{p: p, workers: workers}
	if workers > 1 {
		pl.jobs = make(chan *evalJob, workers)
		for w := 0; w < workers; w++ {
			go pl.worker(w, pl.jobs)
		}
	}
	return pl
}

// close releases the worker goroutines. The pool must be idle (no
// evaluate in flight); subsequent evaluate calls run serially.
func (pl *evalPool) close() {
	if pl.jobs != nil {
		close(pl.jobs)
		pl.jobs = nil
	}
}

// worker drains batches until the pool closes. The worker index is
// stable for the pool's lifetime, so problems can key per-worker state
// on it. The channel is passed explicitly: close() nils the field, and
// a worker whose goroutine is scheduled late must still see the
// (closed) channel, not a nil field, to exit.
func (pl *evalPool) worker(w int, jobs <-chan *evalJob) {
	for job := range jobs {
		pl.drain(w, job)
		job.wg.Done()
	}
}

// drain claims and evaluates index chunks until the batch cursor is
// exhausted.
func (pl *evalPool) drain(w int, job *evalJob) {
	n := len(job.genos)
	for {
		end := int(job.next.Add(evalChunk))
		i := end - evalChunk
		if i >= n {
			return
		}
		if end > n {
			end = n
		}
		for ; i < end; i++ {
			job.out[i] = pl.eval(w, job.genos[i])
		}
	}
}

// eval evaluates one genotype on the given worker.
func (pl *evalPool) eval(w int, g []float64) *Individual {
	obj, payload := pl.p.Evaluate(w, g)
	return &Individual{Genotype: g, Objectives: obj, Payload: payload}
}

// evaluate runs one batch through the pool and blocks until every
// result slot is filled. Output order matches input order for any
// worker count. Steady-state cost per batch is the output slice, the
// job header and one Individual per genotype — no goroutine creation,
// no channel per item.
func (pl *evalPool) evaluate(genos [][]float64) []*Individual {
	out := make([]*Individual, len(genos))
	if pl.jobs == nil || len(genos) == 1 {
		for i, g := range genos {
			out[i] = pl.eval(0, g)
		}
		return out
	}
	job := &evalJob{genos: genos, out: out}
	job.wg.Add(pl.workers)
	for w := 0; w < pl.workers; w++ {
		pl.jobs <- job
	}
	job.wg.Wait()
	return out
}
