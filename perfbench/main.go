// Command perfbench is the repository benchmark: it runs one named
// workload over the DSE or fleet-ingest pipeline, checks the program's
// outputs, and prints every metric by name with its unit.
//
//	bash perfbench/run.sh --workload dse-greedy --seed 1 --seconds 30 --trace 0
//
// The harness drives the program only through its public functions and
// times those calls from outside. With --trace 0 it reports the
// end-to-end metrics of BENCHMARK.json from a run without tracing (the
// DSE decoder probe only reads the clock per decode); with --trace 1 it
// adds timing wrappers, the program's own obs tracer and sampled split
// replays, and reports the per-layer metrics together with a ledger of
// where the wall time went. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// It must run from the repository root: it reads BENCHMARK.json there
// and keeps its scratch data under .bench_build/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// benchFile is the benchmark definition the metric names and units come
// from, so the harness cannot drift from it.
const benchFile = "BENCHMARK.json"

// scratchDir holds the durable side pass's data directories; it lives in
// the checkout, on the repository's own filesystem.
const scratchDir = ".bench_build"

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchDef struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// run is what a workload hands back: the counts of the operations it
// attempted and failed, and its measured metrics by name.
type run struct {
	attempted, failed int
	metrics           map[string]float64
}

func (r *run) set(name string, v float64) {
	if r.metrics == nil {
		r.metrics = make(map[string]float64)
	}
	r.metrics[name] = v
}

// params are the command-line knobs every workload receives.
type params struct {
	seed     uint64
	duration time.Duration
	trace    bool
	out      io.Writer // human-readable report (ledger, sample counts)
}

var workloads = map[string]func(params) (*run, error){
	"dse-greedy": func(p params) (*run, error) { return runDSE(p, dseGreedy) },
	"dse-sat":    func(p params) (*run, error) { return runDSE(p, dseSAT) },
	"ingest-ram": runIngestRAM,
}

// errCheck marks a failed output check: the program produced a wrong
// result, as opposed to the harness failing to run.
var errCheck = errors.New("output check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		workload = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed     = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 10, "measured time per run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and ledger")
	)
	flag.Parse()
	def, err := loadBench(benchFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	p := params{seed: *seed, duration: time.Duration(*seconds) * time.Second, trace: *trace == 1, out: os.Stdout}
	fmt.Fprintf(p.out, "perfbench %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d\n",
		*workload, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	r, err := fn(p)
	if errors.Is(err, errCheck) {
		// Fail loudly, but still end with a result line the caller can
		// parse.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		attempted := 1
		if r != nil && r.attempted > 0 {
			attempted = r.attempted
		}
		fmt.Printf("{\"correct\":false,\"attempted\":%d,\"failed\":%d,\"metrics\":{}}\n", attempted, attempted)
		return 1
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defs := def.EndToEnd
	if p.trace {
		defs = def.PerLayer
		printPerLayer(p.out, r, defs)
	}
	line, err := resultLine(r, defs, !p.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(line)
	return 0
}

func loadBench(path string) (*benchDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition (run from the repository root): %w", err)
	}
	var def benchDef
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &def, nil
}

// resultLine renders the final JSON object of a run whose output checks
// passed, with exactly the metrics in defs. End-to-end metrics must all be measured and non-zero; a
// per-layer metric a workload does not exercise (a layer it bypasses)
// reads 0.
func resultLine(r *run, defs []metricDef, endToEnd bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if endToEnd && (!ok || v == 0) {
			return "", fmt.Errorf("end-to-end metric %s not measured", d.Name)
		}
		metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, r.attempted, r.failed, metrics})
	return string(b), err
}
