package moea

import (
	"testing"
)

// flatProblem is an allocation-free evaluation: objectives live in a
// fixed array per call. Used to isolate the pool's own allocation
// behavior from the problem's.
type flatProblem struct{ n int }

func (f flatProblem) GenotypeLen() int { return f.n }

func (f flatProblem) Evaluate(_ int, g []float64) (Objectives, any) {
	s := 0.0
	for _, v := range g {
		s += v
	}
	return Objectives{s, -s}, nil
}

// workerTag returns the worker index it was evaluated on as the
// payload, proving the pool hands Evaluate stable worker indices.
type workerTag struct{ flatProblem }

func (workerTag) Evaluate(worker int, g []float64) (Objectives, any) {
	return Objectives{g[0], -g[0]}, worker
}

// TestPoolSteadyStateAllocs pins the per-batch cost of the persistent
// pool: after warm-up, a batch must cost only the output slice, the job
// header and one Individual (+ one Objectives) per genotype — no
// goroutine creation, no per-item channel traffic. The old per-batch
// pool construction spawned `workers` goroutines per call, which shows
// up in this assertion as several extra allocations per batch.
func TestPoolSteadyStateAllocs(t *testing.T) {
	const n = 64
	genos := make([][]float64, n)
	for i := range genos {
		genos[i] = []float64{float64(i), 1}
	}
	for _, workers := range []int{1, 4} {
		pl := newEvalPool(flatProblem{n: 2}, workers)
		pl.evaluate(genos) // warm up
		avg := testing.AllocsPerRun(20, func() {
			out := pl.evaluate(genos)
			if len(out) != n {
				t.Fatalf("batch size %d", len(out))
			}
		})
		pl.close()
		// out slice + job + n Individuals + n Objectives slices, plus a
		// little headroom for runtime noise. Goroutine spawning (old
		// behavior: workers goroutines + sync.WaitGroup churn per batch)
		// would push this well past the bound.
		limit := float64(2*n + 8)
		if avg > limit {
			t.Fatalf("workers=%d: %v allocs per batch, want <= %v", workers, avg, limit)
		}
	}
}

// TestPoolOutputOrderDeterministic: the merged result order equals the
// input order for every worker count — per-worker buffers are the
// claimed slots of one output slice, so the merge is positional, not
// arrival-ordered.
func TestPoolOutputOrderDeterministic(t *testing.T) {
	const n = 257 // deliberately not a multiple of evalChunk
	genos := make([][]float64, n)
	for i := range genos {
		genos[i] = []float64{float64(i), 0}
	}
	for _, workers := range []int{1, 2, 3, 8, 32} {
		pl := newEvalPool(flatProblem{n: 2}, workers)
		for rep := 0; rep < 3; rep++ {
			out := pl.evaluate(genos)
			if len(out) != n {
				t.Fatalf("workers=%d: %d results", workers, len(out))
			}
			for i, ind := range out {
				if ind.Objectives[0] != float64(i) {
					t.Fatalf("workers=%d rep=%d: slot %d holds objective %v", workers, rep, i, ind.Objectives[0])
				}
			}
		}
		pl.close()
	}
}

// TestPoolWorkerIndices: every worker index handed to Evaluate is in
// [0, workers), and the serial path uses index 0.
func TestPoolWorkerIndices(t *testing.T) {
	genos := make([][]float64, 128)
	for i := range genos {
		genos[i] = []float64{float64(i), 0}
	}
	for _, workers := range []int{1, 4} {
		pl := newEvalPool(workerTag{}, workers)
		out := pl.evaluate(genos)
		pl.close()
		for i, ind := range out {
			w, ok := ind.Payload.(int)
			if !ok {
				t.Fatalf("workers=%d: slot %d carries no worker index", workers, i)
			}
			if w < 0 || w >= workers {
				t.Fatalf("workers=%d: slot %d evaluated on worker %d", workers, i, w)
			}
		}
	}
}
