package main

import (
	"fmt"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	b, ok := parseLine("BenchmarkDecodeEvaluate-8   	     100	  11221911 ns/op	 1322868 B/op	   23290 allocs/op")
	if !ok {
		t.Fatal("line rejected")
	}
	if b.Name != "BenchmarkDecodeEvaluate" || b.Procs != 8 || b.Iterations != 100 {
		t.Fatalf("parsed %+v", b)
	}
	if b.NsPerOp != 11221911 {
		t.Fatalf("ns/op = %v", b.NsPerOp)
	}
	if b.BytesPerOp == nil || *b.BytesPerOp != 1322868 || b.AllocsPerOp == nil || *b.AllocsPerOp != 23290 {
		t.Fatalf("mem stats %+v", b)
	}
}

func TestParseLineCustomMetric(t *testing.T) {
	b, ok := parseLine("BenchmarkDSEParallel/workers=4-8	       2	 512000000 ns/op	     9321 evals/s")
	if !ok {
		t.Fatal("line rejected")
	}
	if b.Name != "BenchmarkDSEParallel/workers=4" {
		t.Fatalf("name %q", b.Name)
	}
	if b.Custom["evals/s"] != 9321 {
		t.Fatalf("custom = %v", b.Custom)
	}
}

func TestParseLineRejectsNonResults(t *testing.T) {
	for _, line := range []string{
		"BenchmarkDecodeEvaluate-8",        // -v echo, no fields
		"Benchmark bogus text",             // non-numeric iteration count
		"ok  	repro	1.2s",                  // summary line
		"BenchmarkX-8 12 notanumber ns/op", // bad value
	} {
		if _, ok := parseLine(line); ok {
			t.Fatalf("line %q accepted", line)
		}
	}
}

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Test CPU
BenchmarkDecodeEvaluate-8   	     512	   2100000 ns/op	   90000 B/op	     309 allocs/op
BenchmarkDSEParallel/workers=1-8         	       8	 140000000 ns/op	      2674 evals/s	 1000000 B/op	   30000 allocs/op
BenchmarkDSEParallel/workers=4-8         	       8	 120000000 ns/op	      3100 evals/s	 1000000 B/op	   30000 allocs/op
`

func sampleReport(t *testing.T) *Report {
	t.Helper()
	rep := parseBench(strings.NewReader(sampleBench))
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}
	return &rep
}

func TestParseBenchHeaders(t *testing.T) {
	rep := sampleReport(t)
	if rep.GoOS != "linux" || rep.CPU != "Test CPU" || rep.Package != "repro" {
		t.Fatalf("header = %q/%q/%q", rep.GoOS, rep.CPU, rep.Package)
	}
	b := rep.Benchmarks[1]
	if b.Name != "BenchmarkDSEParallel/workers=1" || b.Custom["evals/s"] != 2674 {
		t.Fatalf("parsed %+v", b)
	}
}

func TestParseMaxRegress(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
		ok   bool
	}{
		{"15%", 0.15, true},
		{"15", 0.15, true},
		{" 7.5% ", 0.075, true},
		{"0%", 0, true},
		{"-3%", 0, false},
		{"abc", 0, false},
	} {
		got, err := parseMaxRegress(tc.in)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Fatalf("parseMaxRegress(%q) = %v, %v; want %v ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

func TestCompareNoRegression(t *testing.T) {
	base := sampleReport(t)
	cur := sampleReport(t)
	// Within tolerance: 10% slower on a 15% gate passes.
	cur.Benchmarks[0].NsPerOp *= 1.10
	regs, _ := compareReports(base, cur, 0.15)
	if len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
}

// TestCompareSyntheticRegression is the acceptance check for the gate:
// a synthetic 20% throughput regression must fail a 15% gate.
func TestCompareSyntheticRegression(t *testing.T) {
	base := sampleReport(t)
	cur := sampleReport(t)
	cur.Benchmarks[1].Custom["evals/s"] *= 0.80 // 20% throughput loss
	regs, _ := compareReports(base, cur, 0.15)
	if len(regs) != 1 || !strings.Contains(regs[0], "evals/s") {
		t.Fatalf("regressions = %v, want one evals/s entry", regs)
	}
}

func TestCompareNsAndAllocRegression(t *testing.T) {
	base := sampleReport(t)
	cur := sampleReport(t)
	cur.Benchmarks[0].NsPerOp *= 1.30 // 30% slower
	blownUp := *cur.Benchmarks[0].AllocsPerOp * 2
	cur.Benchmarks[0].AllocsPerOp = &blownUp // alloc-count blowup
	regs, _ := compareReports(base, cur, 0.15)
	if len(regs) != 2 {
		t.Fatalf("regressions = %v, want ns/op and allocs/op entries", regs)
	}
}

func TestCompareDisjointBenchmarksOnlyNote(t *testing.T) {
	base := sampleReport(t)
	cur := sampleReport(t)
	cur.Benchmarks[2].Name = "BenchmarkBrandNew"
	regs, notes := compareReports(base, cur, 0.15)
	if len(regs) != 0 {
		t.Fatalf("renamed benchmark failed the gate: %v", regs)
	}
	if len(notes) != 2 {
		t.Fatalf("notes = %v, want baseline-only + new-benchmark", notes)
	}
}

// TestFoldRepeatedSamples reads a `-count 3` run: the three samples of
// each benchmark fold into one entry holding per-metric medians, so one
// slow sample neither fails the gate nor hides a slowdown that every
// sample shows.
func TestFoldRepeatedSamples(t *testing.T) {
	rep := parseBench(strings.NewReader(`pkg: repro
BenchmarkDecodeEvaluateFull-2   	     500	   2000000 ns/op	   90000 B/op	     111 allocs/op
BenchmarkDSEParallel/workers=1-2	       8	 140000000 ns/op	      2674 evals/s	 1000000 B/op	   30000 allocs/op
BenchmarkDecodeEvaluateFull-2   	     400	   3100000 ns/op	   90010 B/op	     111 allocs/op
BenchmarkDSEParallel/workers=1-2	       9	 120000000 ns/op	      3100 evals/s	 1000200 B/op	   30002 allocs/op
BenchmarkDecodeEvaluateFull-2   	     600	   2100000 ns/op	   90020 B/op	     112 allocs/op
BenchmarkDSEParallel/workers=1-2	       7	 130000000 ns/op	      2900 evals/s	 1000100 B/op	   30001 allocs/op
`))
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("folded into %d benchmarks, want 2: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	full, dse := rep.Benchmarks[0], rep.Benchmarks[1]
	if full.Name != "BenchmarkDecodeEvaluateFull" || full.Procs != 2 || full.Iterations != 500 ||
		full.NsPerOp != 2100000 || *full.BytesPerOp != 90010 || *full.AllocsPerOp != 111 {
		t.Fatalf("DecodeEvaluateFull folded to %+v", full)
	}
	if dse.NsPerOp != 130000000 || dse.Custom["evals/s"] != 2900 || *dse.AllocsPerOp != 30001 {
		t.Fatalf("DSEParallel folded to %+v", dse)
	}

	// Against a 2.0 ms baseline the 3.1 ms outlier alone would read
	// +55 %; the median reads +5 %. Every sample 20 % slower than the
	// baseline still fails.
	base := parseBench(strings.NewReader("BenchmarkDecodeEvaluateFull-2 500 2000000 ns/op 90000 B/op 111 allocs/op\n"))
	for _, tc := range []struct {
		samples []int
		fail    bool
	}{
		{[]int{2000000, 3100000, 2100000}, false},
		{[]int{2400000, 2450000, 2380000}, true},
	} {
		var in strings.Builder
		for _, ns := range tc.samples {
			fmt.Fprintf(&in, "BenchmarkDecodeEvaluateFull-2 500 %d ns/op 90000 B/op 111 allocs/op\n", ns)
		}
		cur := parseBench(strings.NewReader(in.String()))
		regs, _ := compareReports(&base, &cur, 0.15)
		if fail := len(regs) == 1 && strings.Contains(regs[0], "ns/op"); fail != tc.fail || (!tc.fail && len(regs) != 0) {
			t.Fatalf("samples %v: regressions %v, want failure=%v", tc.samples, regs, tc.fail)
		}
	}
}
