package moea_test

import (
	"context"
	"fmt"

	"repro/internal/moea"
)

// oneMax is a toy problem: minimize (1 − mean(g), mean(g)) — the front
// is the whole diagonal.
type oneMax struct{}

func (oneMax) GenotypeLen() int { return 8 }

func (oneMax) Evaluate(_ int, g []float64) (moea.Objectives, any) {
	sum := 0.0
	for _, v := range g {
		sum += v
	}
	m := sum / float64(len(g))
	return moea.Objectives{1 - m, m}, nil
}

func ExampleRun() {
	res, err := moea.Run(context.Background(), oneMax{}, moea.Options{PopSize: 16, Generations: 10, Seed: 1})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("evaluations:", res.Evaluations)
	fmt.Println("archive non-empty:", len(res.Archive) > 0)
	// Output:
	// evaluations: 176
	// archive non-empty: true
}
