package moea

import (
	"context"
	"math/rand"
	"time"
)

// randomChunk is the archive-fold granularity of random search: genotype
// generation stays sequential (one PRNG stream), evaluation of each
// chunk may run on Workers goroutines, and the non-dominated filter runs
// once per chunk to bound its quadratic cost. Chunk boundaries are also
// the cancellation boundaries.
const randomChunk = 256

// RandomOptions configure a random-search run.
type RandomOptions struct {
	// Evals is the evaluation budget (minimum 1).
	Evals int
	Seed  int64
	// Workers > 1 evaluates each chunk's genotypes concurrently; results
	// are identical for any worker count.
	Workers int
	// OnProgress, when non-nil, receives a telemetry sample after every
	// chunk.
	OnProgress func(Progress)
}

// RandomSearch evaluates opt.Evals uniformly random genotypes and keeps
// the non-dominated archive — the null-hypothesis optimizer against
// which NSGA-II's selection pressure is measured (optimizer ablation).
// Cancellation is honored at chunk boundaries and returns the partial
// Result with ctx.Err(); no goroutines outlive the call.
func RandomSearch(ctx context.Context, p Problem, opt RandomOptions) (*Result, error) {
	genLen := p.GenotypeLen()
	if genLen <= 0 {
		return nil, errEmptyGenotype
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Evals < 1 {
		opt.Evals = 1
	}
	rng := rand.New(newPRNG(opt.Seed))
	res := &Result{}
	start := time.Now()
	pool := newEvalPool(p, opt.Workers)
	defer pool.close()

	var (
		archive []*Individual
		err     error
	)
	for chunk := 0; res.Evaluations < opt.Evals; chunk++ {
		if err = ctx.Err(); err != nil {
			break
		}
		genos := make([][]float64, min(opt.Evals-res.Evaluations, randomChunk))
		for i := range genos {
			g := make([]float64, genLen)
			for j := range g {
				g[j] = rng.Float64()
			}
			genos[i] = g
		}
		archive = updateArchive(archive, pool.evaluate(genos), nil)
		res.Evaluations += len(genos)
		if opt.OnProgress != nil {
			opt.OnProgress(Progress{
				Generation:     chunk,
				Evaluations:    res.Evaluations,
				RunEvaluations: res.Evaluations,
				Archive:        archive,
				Elapsed:        time.Since(start),
			})
		}
	}
	res.Archive = archive
	return res, err
}
