// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON benchmark report, so CI can archive throughput numbers
// (evals/sec, ns/decode, allocs/decode) as a machine-readable artifact
// and regressions show up as diffs instead of buried log lines.
//
// Usage:
//
//	go test -run=NONE -bench 'Decode|DSE' -benchmem . | benchjson -out BENCH_2.json
//
// Non-benchmark lines are ignored, so the full `go test` output can be
// piped through unfiltered. Repeated results of one benchmark (from
// `-count N`) fold into one entry holding the per-metric medians, so a
// report and a gate read the median of the samples rather than any one.
//
// Compare mode turns the report into a CI regression gate:
//
//	go test -run=NONE -bench 'Decode|DSE' -benchmem . |
//	    benchjson -out current.json -compare BENCH_BASELINE.json -max-regress 15%
//
// compares the freshly parsed report against the baseline and exits
// non-zero when any benchmark present in both regressed by more than
// the tolerance: ns/op or allocs/op grew, or a throughput metric
// (any `.../s` unit, e.g. evals/s) shrank. A positional argument
// (`benchjson -compare old.json new.json`) compares two existing
// report files instead of parsing stdin. Benchmarks present in only
// one report are listed but never fail the gate, so adding or
// removing benchmarks does not break CI.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string  `json:"name"`
	Procs      int     `json:"procs"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp/AllocsPerOp are present only with -benchmem.
	BytesPerOp  *int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64 `json:"allocs_per_op,omitempty"`
	// Custom holds b.ReportMetric values, e.g. "evals/s".
	Custom map[string]float64 `json:"custom,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	Package    string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "write the JSON report to this file (default stdout)")
	compare := flag.String("compare", "", "baseline report to gate against; exits non-zero on regression")
	maxRegress := flag.String("max-regress", "10%", "regression tolerance for -compare, e.g. 15% (a bare number is also read as percent)")
	flag.Parse()

	var rep Report
	if *compare != "" && flag.NArg() == 1 {
		// Pure compare mode: the current report is an existing file.
		cur, err := readReport(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		rep = *cur
	} else {
		if flag.NArg() != 0 {
			fatal(fmt.Errorf("unexpected arguments %v (a report file argument requires -compare)", flag.Args()))
		}
		rep = parseBench(os.Stdin)
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	}

	if *compare == "" {
		return
	}
	tol, err := parseMaxRegress(*maxRegress)
	if err != nil {
		fatal(err)
	}
	base, err := readReport(*compare)
	if err != nil {
		fatal(err)
	}
	regressions, notes := compareReports(base, &rep, tol)
	for _, n := range notes {
		fmt.Fprintln(os.Stderr, "benchjson:", n)
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "benchjson: REGRESSION:", r)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) beyond %.1f%% vs %s\n",
			len(regressions), tol*100, *compare)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: no regressions beyond %.1f%% vs %s\n", tol*100, *compare)
}

// parseBench parses `go test -bench` output into a report.
func parseBench(r io.Reader) Report {
	rep := Report{Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Package = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	rep.Benchmarks = foldRepeats(rep.Benchmarks)
	return rep
}

// foldRepeats merges the results sharing a name and GOMAXPROCS into one
// entry at the position of the first, holding the median of every
// metric over the samples: ns/op, B/op, allocs/op, each custom unit and
// the iteration count. A metric missing from some samples takes the
// median of the samples that report it.
func foldRepeats(bs []Benchmark) []Benchmark {
	type key struct {
		name  string
		procs int
	}
	groups := map[key][]Benchmark{}
	var order []key
	for _, b := range bs {
		k := key{b.Name, b.Procs}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], b)
	}
	out := make([]Benchmark, 0, len(order))
	for _, k := range order {
		g := groups[k]
		if len(g) == 1 {
			out = append(out, g[0])
			continue
		}
		m := Benchmark{Name: k.name, Procs: k.procs}
		var iters, ns, bytes, allocs []float64
		custom := map[string][]float64{}
		for _, b := range g {
			iters = append(iters, float64(b.Iterations))
			ns = append(ns, b.NsPerOp)
			if b.BytesPerOp != nil {
				bytes = append(bytes, float64(*b.BytesPerOp))
			}
			if b.AllocsPerOp != nil {
				allocs = append(allocs, float64(*b.AllocsPerOp))
			}
			for u, v := range b.Custom {
				custom[u] = append(custom[u], v)
			}
		}
		m.Iterations = int64(math.Round(median(iters)))
		m.NsPerOp = median(ns)
		m.BytesPerOp = medianCount(bytes)
		m.AllocsPerOp = medianCount(allocs)
		for u, vs := range custom {
			if m.Custom == nil {
				m.Custom = make(map[string]float64)
			}
			m.Custom[u] = median(vs)
		}
		out = append(out, m)
	}
	return out
}

// median returns the middle value of vs, or the mean of the two middle
// values for an even count. It sorts vs in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// medianCount is median for a per-op count, rounded; nil without samples.
func medianCount(vs []float64) *int64 {
	if len(vs) == 0 {
		return nil
	}
	v := int64(math.Round(median(vs)))
	return &v
}

// readReport loads a JSON report written by this tool.
func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rep.Benchmarks = foldRepeats(rep.Benchmarks)
	return rep, nil
}

// parseMaxRegress parses a tolerance like "15%" (or "15") into the
// fraction 0.15.
func parseMaxRegress(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(s), "%"), 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad -max-regress %q (want e.g. 15%%)", s)
	}
	return v / 100, nil
}

// compareReports gates cur against base: for every benchmark name in
// both reports it checks the lower-is-better metrics (ns/op,
// allocs/op) for growth and the throughput metrics (custom units
// ending in "/s", e.g. evals/s) for shrinkage beyond tol. Benchmarks
// in only one report produce informational notes, never failures.
func compareReports(base, cur *Report, tol float64) (regressions, notes []string) {
	curByName := map[string]*Benchmark{}
	for i := range cur.Benchmarks {
		curByName[cur.Benchmarks[i].Name] = &cur.Benchmarks[i]
	}
	seen := map[string]bool{}
	for i := range base.Benchmarks {
		b := &base.Benchmarks[i]
		seen[b.Name] = true
		c, ok := curByName[b.Name]
		if !ok {
			notes = append(notes, fmt.Sprintf("%s: in baseline only (skipped)", b.Name))
			continue
		}
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+tol) {
			regressions = append(regressions, fmt.Sprintf("%s: ns/op %.0f -> %.0f (+%.1f%%)",
				b.Name, b.NsPerOp, c.NsPerOp, 100*(c.NsPerOp/b.NsPerOp-1)))
		}
		if b.AllocsPerOp != nil && c.AllocsPerOp != nil && *b.AllocsPerOp > 0 &&
			float64(*c.AllocsPerOp) > float64(*b.AllocsPerOp)*(1+tol) {
			regressions = append(regressions, fmt.Sprintf("%s: allocs/op %d -> %d (+%.1f%%)",
				b.Name, *b.AllocsPerOp, *c.AllocsPerOp, 100*(float64(*c.AllocsPerOp)/float64(*b.AllocsPerOp)-1)))
		}
		for unit, bv := range b.Custom {
			if !strings.HasSuffix(unit, "/s") || bv <= 0 {
				continue
			}
			if cv, ok := c.Custom[unit]; ok && cv < bv*(1-tol) {
				regressions = append(regressions, fmt.Sprintf("%s: %s %.0f -> %.0f (-%.1f%%)",
					b.Name, unit, bv, cv, 100*(1-cv/bv)))
			}
		}
	}
	for name := range curByName {
		if !seen[name] {
			notes = append(notes, fmt.Sprintf("%s: new benchmark (no baseline)", name))
		}
	}
	sort.Strings(regressions)
	sort.Strings(notes)
	return regressions, notes
}

// parseLine parses one result line of the standard benchmark format,
//
//	BenchmarkName-8  100  123456 ns/op  42 B/op  7 allocs/op  987 evals/s
//
// returning ok=false for lines that do not parse (e.g. bare benchmark
// names echoed with -v).
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Procs: 1}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Procs = p
			b.Name = b.Name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = iters
	// The remainder is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = val
		case "B/op":
			v := int64(val)
			b.BytesPerOp = &v
		case "allocs/op":
			v := int64(val)
			b.AllocsPerOp = &v
		default:
			if b.Custom == nil {
				b.Custom = make(map[string]float64)
			}
			b.Custom[unit] = val
		}
	}
	return b, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
