// Command perfbench is the repository benchmark: it runs one workload
// (replay, numeric or serve) against the code in the checkout, checks every
// answer, and prints one JSON result line as the last line of its output.
//
//	bash perfbench/run.sh --workload replay --seed 1 --seconds 25 --trace 0
//
// run.sh builds this program from the checkout into .bench_build and execs
// it from the checkout root. With --trace 0 the result carries the
// end-to-end metrics, measured with nothing extra switched on. With
// --trace 1 it carries the per-layer metrics of one separate traced run:
// spans around the calls into each layer, a CPU profile folded by layer,
// and Go runtime counters. METRICS.md lists every metric and the
// end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one benchmark run: its inputs, the metrics
// collected so far and the tally of checked operations.
type bench struct {
	root    string        // checkout root, the working directory
	bin     string        // where confluxd is built
	work    string        // profiles, spans and logs
	seed    uint64        // input seed
	budget  time.Duration // measuring time
	traced  bool
	started time.Time

	metrics   map[string]metric
	attempted int
	failed    int
	executors map[string]bool // resolved smpi executors seen
	spans     *spanLog
}

// check counts one checked operation and records a failure when ok is
// false.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// fail counts one attempted operation that returned an error.
func (b *bench) fail(what string, err error) {
	b.check(false, "%s: %v", what, err)
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	workload := flag.String("workload", "", "workload to run: replay, numeric or serve")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 25, "measuring time in seconds")
	traceFlag := flag.Int("trace", 0, "1 = the traced run reporting per-layer metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload replay|numeric|serve --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b := &bench{
		root:      root,
		bin:       filepath.Join(root, ".bench_build", "bin"),
		work:      filepath.Join(root, ".bench_build", "work"),
		seed:      *seed,
		budget:    time.Duration(*seconds) * time.Second,
		traced:    *traceFlag == 1,
		started:   time.Now(),
		metrics:   map[string]metric{},
		executors: map[string]bool{},
		spans:     newSpanLog(),
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if b.traced {
		err = tracedRun(b, *workload)
	} else {
		err = run(b)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	want := endToEnd
	if b.traced {
		want = perLayer
		if err := b.spans.write(filepath.Join(b.work, fmt.Sprintf("spans-%s-%d.json", *workload, b.seed))); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	out := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, m := range want {
		v, ok := b.metrics[m.Name]
		if !ok || v.Unit != m.Unit {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured in %s\n", *workload, m.Name, m.Unit)
			os.Exit(1)
		}
		out.Metrics[m.Name] = v
	}
	if out.Attempted == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operation was checked\n", *workload)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: fail_ratio %d/%d, total %.1fs\n",
		*workload, b.failed, b.attempted, time.Since(b.started).Seconds())
	prov, err := json.Marshal(provenance(b, *workload))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("provenance %s\n", prov)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// workloads maps a workload name to its untraced run.
var workloads = map[string]func(*bench) error{
	"replay":  runReplay,
	"numeric": runNumeric,
	"serve":   runServe,
}
