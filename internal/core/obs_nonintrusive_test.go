package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/moea"
	"repro/internal/obs"
)

// frontBytes serializes the full result — implementations, objective
// vectors, evaluation count — so the tracing-on/off comparison is
// byte-level, not just objective equality.
func frontBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Evaluations int
		Solutions   []Solution
	}{res.Evaluations, res.Solutions})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestExplorerObsNonIntrusive pins the observability invariant: with a
// live tracer (event recording on) the exploration produces a
// byte-identical front to the untraced run, at single- and
// multi-worker counts, because spans never touch RNG streams or
// evaluation order.
func TestExplorerObsNonIntrusive(t *testing.T) {
	spec := smallSpec(t)
	for _, w := range []int{1, 4} {
		opt := moea.Options{PopSize: 16, Generations: 6, Seed: 5, Workers: w}

		dec, err := NewGreedyDecoder(spec)
		if err != nil {
			t.Fatal(err)
		}
		plain := NewExplorer(spec, dec)
		want, err := plain.Run(opt)
		if err != nil {
			t.Fatalf("workers=%d plain: %v", w, err)
		}

		dec2, err := NewGreedyDecoder(spec)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		tracer := obs.NewTracer(reg, obs.TracerConfig{Record: true})
		traced := NewExplorer(spec, dec2)
		traced.Obs = tracer
		got, err := traced.Run(opt)
		if err != nil {
			t.Fatalf("workers=%d traced: %v", w, err)
		}

		if !bytes.Equal(frontBytes(t, want), frontBytes(t, got)) {
			t.Fatalf("workers=%d: traced front differs from untraced front", w)
		}
		// Guard against a vacuous pass: the tracer must actually have
		// metered the run.
		if n := len(tracer.Drain(nil)); n == 0 {
			t.Fatalf("workers=%d: tracer recorded no events", w)
		}
	}
}

// TestExplorerIslandsObsNonIntrusive extends the invariant to the
// island model: generation, migration, decode and objective spans all
// fire, and the merged front stays byte-identical to the untraced
// campaign at every worker count.
func TestExplorerIslandsObsNonIntrusive(t *testing.T) {
	spec := smallSpec(t)
	opt := moea.Options{PopSize: 12, Generations: 6, Seed: 9, Islands: 3, MigrateEvery: 2, Migrants: 2}

	var want []byte
	for _, w := range []int{1, 4} {
		o := opt
		o.Workers = w

		dec, err := NewGreedyDecoder(spec)
		if err != nil {
			t.Fatal(err)
		}
		plain := NewExplorer(spec, dec)
		res, err := plain.RunContext(context.Background(), o)
		if err != nil {
			t.Fatalf("workers=%d plain: %v", w, err)
		}
		if want == nil {
			want = frontBytes(t, res)
		} else if !bytes.Equal(want, frontBytes(t, res)) {
			t.Fatalf("workers=%d: untraced island front not worker-invariant", w)
		}

		dec2, err := NewGreedyDecoder(spec)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		tracer := obs.NewTracer(reg, obs.TracerConfig{Record: true})
		traced := NewExplorer(spec, dec2)
		traced.Obs = tracer
		tres, err := traced.RunContext(context.Background(), o)
		if err != nil {
			t.Fatalf("workers=%d traced: %v", w, err)
		}
		if !bytes.Equal(want, frontBytes(t, tres)) {
			t.Fatalf("workers=%d: traced island front differs from untraced", w)
		}

		stages := map[obs.Stage]bool{}
		for _, e := range tracer.Drain(nil) {
			stages[e.Stage] = true
		}
		for _, s := range []obs.Stage{obs.StageDecode, obs.StageObjective, obs.StageGeneration, obs.StageMigration} {
			if !stages[s] {
				t.Fatalf("workers=%d: no %s spans recorded", w, s)
			}
		}
	}
}
