// Command benchdiff compares two perf-suite JSON records (see
// `confluxbench -exp perf -json`) case by case, benchstat-style: time,
// allocations, and allocated bytes per op, with the relative change. It is
// the non-blocking regression gate of `make bench-json`: regressions beyond
// the threshold are flagged loudly in the log (and summarized on stderr),
// but the exit status stays 0 unless -exit is set, so a noisy CI runner
// cannot hard-fail the build on timing jitter.
//
// Records with "kind": "topology" (`confluxbench -exp topology -json`) are
// compared exactly instead: every number in them is simulated, so two runs
// of the same sweep must agree bit for bit, and any drift on a shared row
// is a determinism regression regardless of threshold.
//
// Records with "kind": "kernels" (`confluxbench -exp kernels -json`) are
// host measurements of the local level-3 kernels: rows compare with the
// perf threshold, and the headline 512×512 blocked-GEMM speedup must stay
// at or above bench.MinGemmSpeedup512 — the acceptance floor that lets
// numeric factorization run at paper scale.
//
// Usage:
//
//	benchdiff [-threshold 10] [-exit] OLD.json NEW.json
//
// Only cases present in both records are compared (records taken at
// different scale presets share their common prefix of cases).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bench"
)

// record is one loaded file: exactly one of perf/topo/kern is set,
// dispatched on the "kind" field ("" = a perf record, which predates the
// field).
type record struct {
	perf *bench.PerfReport
	topo *bench.TopoReport
	kern *bench.KernelReport
}

func load(path string) (record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return record{}, err
	}
	var kind struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(raw, &kind); err != nil {
		return record{}, fmt.Errorf("%s: %w", path, err)
	}
	if kind.Kind == "topology" {
		var rep bench.TopoReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			return record{}, fmt.Errorf("%s: %w", path, err)
		}
		return record{topo: &rep}, nil
	}
	if kind.Kind == "kernels" {
		var rep bench.KernelReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			return record{}, fmt.Errorf("%s: %w", path, err)
		}
		return record{kern: &rep}, nil
	}
	var rep bench.PerfReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return record{}, fmt.Errorf("%s: %w", path, err)
	}
	return record{perf: &rep}, nil
}

// diffTopo compares two topology sweeps exactly. Shared rows — same
// (scenario, engine, c) — must agree on bytes and makespan to the last
// bit; the recorded optima must match wherever both sweeps cover the
// scenario. Returns (drifted rows, shared rows).
func diffTopo(out io.Writer, oldRep, newRep *bench.TopoReport) (int, int) {
	type rowKey struct {
		scenario string
		algo     string
		c        int
	}
	oldRows := map[rowKey]bench.TopoRow{}
	for _, r := range oldRep.Rows {
		oldRows[rowKey{r.Scenario, string(r.Algo), r.C}] = r
	}
	fmt.Fprintf(out, "%-22s %-8s %-3s %14s %14s\n", "scenario", "engine", "c", "bytes", "makespan")
	drift, compared := 0, 0
	for _, r := range newRep.Rows {
		o, ok := oldRows[rowKey{r.Scenario, string(r.Algo), r.C}]
		if !ok {
			continue
		}
		compared++
		mark := ""
		if o.Bytes != r.Bytes || o.Makespan != r.Makespan {
			mark = fmt.Sprintf("  <<< REGRESSION: determinism (was %d bytes, %.17gs)", o.Bytes, o.Makespan)
			drift++
		}
		fmt.Fprintf(out, "%-22s %-8s %-3d %14d %14.6e%s\n", r.Scenario, r.Algo, r.C, r.Bytes, r.Makespan, mark)
	}
	for name, o := range oldRep.Optima {
		n, ok := newRep.Optima[name]
		if !ok {
			continue
		}
		if o != n {
			fmt.Fprintf(out, "optimum %-22s moved: %s c=%d -> %s c=%d  <<< REGRESSION: optimum\n",
				name, o.Algo, o.C, n.Algo, n.C)
			drift++
		}
	}
	return drift, compared
}

// diffKernels compares two kernel micro-benchmark records: shared rows
// with the perf threshold on time, plus the headline 512×512 GEMM speedup
// floor (bench.MinGemmSpeedup512) — the blocked kernels are what lets
// numeric factorization run at paper scale, so falling below the floor is
// a regression even if no individual row moved by the threshold. Records
// taken on hosts with different ISAs (asm vs generic micro-kernel) are
// compared with rows only; the speedup floor still applies, since the
// acceptance bar is host-relative.
func diffKernels(out io.Writer, oldRep, newRep *bench.KernelReport, threshold float64) (int, int) {
	fmt.Fprintf(out, "benchdiff kernel records (isa %s -> %s), regression threshold %.0f%%\n",
		oldRep.ISA, newRep.ISA, threshold)
	oldByName := map[string]bench.KernelRow{}
	for _, r := range oldRep.Rows {
		oldByName[r.Name] = r
	}
	fmt.Fprintf(out, "%-36s %14s %14s %8s %12s\n", "case", "old", "new", "Δtime", "MFLOP/s")
	regressions, compared := 0, 0
	for _, r := range newRep.Rows {
		o, ok := oldByName[r.Name]
		if !ok {
			continue
		}
		compared++
		dt := pct(o.NsPerOp, r.NsPerOp)
		mark := ""
		if dt > threshold {
			mark = "  <<< REGRESSION: time"
			regressions++
		}
		fmt.Fprintf(out, "%-36s %14s %14s %+7.1f%% %12.0f%s\n",
			r.Name, time.Duration(o.NsPerOp), time.Duration(r.NsPerOp), dt, r.MFlops, mark)
	}
	fmt.Fprintf(out, "speedup at 512x512: %.2fx -> %.2fx (floor %.1fx)\n",
		oldRep.Speedup512, newRep.Speedup512, bench.MinGemmSpeedup512)
	if newRep.Speedup512 < bench.MinGemmSpeedup512 {
		fmt.Fprintf(out, "  <<< REGRESSION: blocked GEMM speedup below the %.1fx acceptance floor\n",
			bench.MinGemmSpeedup512)
		regressions++
	}
	return regressions, compared
}

func pct(old, new int64) float64 {
	if old == 0 {
		return 0
	}
	return 100 * (float64(new) - float64(old)) / float64(old)
}

// diffPerf compares two perf-suite records: time and allocation deltas of
// the shared cases, flagged beyond the threshold (allocations only above
// minAllocs per op). Returns (regressed rows, shared rows).
func diffPerf(out io.Writer, oldRep, newRep *bench.PerfReport, threshold float64, minAllocs uint64) (int, int) {
	oldByName := map[string]bench.PerfMeasurement{}
	for _, m := range oldRep.Results {
		oldByName[m.Name] = m
	}
	fmt.Fprintf(out, "%-44s %14s %14s %8s %10s %8s\n", "case", "old", "new", "Δtime", "Δallocs", "Δbytes")
	regressions, compared := 0, 0
	for _, m := range newRep.Results {
		o, ok := oldByName[m.Name]
		if !ok {
			continue
		}
		compared++
		dt := pct(o.NsPerOp, m.NsPerOp)
		da := pct(int64(o.AllocsPerOp), int64(m.AllocsPerOp))
		db := pct(int64(o.BytesPerOp), int64(m.BytesPerOp))
		mark := ""
		if dt > threshold {
			mark = "  <<< REGRESSION: time"
			regressions++
		} else if da > threshold && m.AllocsPerOp >= minAllocs {
			mark = "  <<< REGRESSION: allocs"
			regressions++
		}
		fmt.Fprintf(out, "%-44s %14s %14s %+7.1f%% %+9.1f%% %+7.1f%%%s\n",
			m.Name, time.Duration(o.NsPerOp), time.Duration(m.NsPerOp), dt, da, db, mark)
	}
	return regressions, compared
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is benchdiff with its arguments and output streams explicit, so the
// comparison and exit-status rules are testable. It returns the exit
// status: 0 clean (or regressions without -exit), 1 regressions under
// -exit, 2 usage or input errors, including records that share no case.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 10, "flag regressions beyond this percentage")
	minAllocs := fs.Uint64("minallocs", 10_000, "ignore allocation regressions below this many allocs/op (relative noise on near-zero counts)")
	hardExit := fs.Bool("exit", false, "exit non-zero when a time regression exceeds the threshold")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [-threshold pct] [-exit] OLD.json NEW.json")
		return 2
	}
	oldPath, newPath := fs.Arg(0), fs.Arg(1)
	oldRec, err := load(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	newRec, err := load(newPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var regressions, compared int
	var verdict string
	switch {
	case oldRec.topo != nil || newRec.topo != nil:
		if oldRec.topo == nil || newRec.topo == nil {
			fmt.Fprintln(stderr, "benchdiff: cannot compare a topology record with a perf record")
			return 2
		}
		fmt.Fprintf(stdout, "benchdiff %s (%s) -> %s (%s), topology records: exact comparison\n",
			oldPath, oldRec.topo.Scale, newPath, newRec.topo.Scale)
		regressions, compared = diffTopo(stdout, oldRec.topo, newRec.topo)
		verdict = "topology row(s) drifted — simulated results are deterministic, so this is a real change"
	case oldRec.kern != nil || newRec.kern != nil:
		if oldRec.kern == nil || newRec.kern == nil {
			fmt.Fprintln(stderr, "benchdiff: cannot compare a kernels record with a different kind")
			return 2
		}
		regressions, compared = diffKernels(stdout, oldRec.kern, newRec.kern, *threshold)
		verdict = "kernel case(s) regressed — the level-3 kernels are a conformance prerequisite, inspect before merging"
	default:
		fmt.Fprintf(stdout, "benchdiff %s (%s) -> %s (%s), regression threshold %.0f%%\n",
			oldPath, oldRec.perf.Scale, newPath, newRec.perf.Scale, *threshold)
		regressions, compared = diffPerf(stdout, oldRec.perf, newRec.perf, *threshold, *minAllocs)
		verdict = fmt.Sprintf("case(s) regressed more than %.0f%% — inspect before merging", *threshold)
	}
	if compared == 0 {
		fmt.Fprintln(stderr, "benchdiff: the two records share no cases")
		return 2
	}
	if regressions > 0 {
		fmt.Fprintf(stderr, "\nbenchdiff: %d %s\n", regressions, verdict)
		if *hardExit {
			return 1
		}
	}
	return 0
}
