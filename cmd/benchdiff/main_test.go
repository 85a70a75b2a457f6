package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

// perfRec builds a perf record from (name, ns/op, allocs/op) rows.
func perfRec(rows ...bench.PerfMeasurement) *bench.PerfReport {
	return &bench.PerfReport{Scale: "small", GoMaxProcs: 1, Results: rows}
}

func perfRow(name string, ns int64, allocs uint64) bench.PerfMeasurement {
	return bench.PerfMeasurement{Name: name, Iters: 1, NsPerOp: ns, AllocsPerOp: allocs}
}

func topoRec(makespan float64, optimum bench.TopoOptimum, rows ...bench.TopoRow) *bench.TopoReport {
	r := &bench.TopoReport{Kind: "topology", Scale: "small", N: 64, P: 8, Rows: rows,
		Optima: map[string]bench.TopoOptimum{"flat": optimum}}
	for i := range r.Rows {
		r.Rows[i].Makespan = makespan
	}
	return r
}

func topoRow(scenario string, c int, bytes int64) bench.TopoRow {
	return bench.TopoRow{Scenario: scenario, Algo: "COnfLUX", C: c, Bytes: bytes}
}

func kernRec(speedup float64, rows ...bench.KernelRow) *bench.KernelReport {
	return &bench.KernelReport{Kind: "kernels", ISA: "avx2", GoMaxProcs: 1, Speedup512: speedup, Rows: rows}
}

func kernRow(name string, ns int64) bench.KernelRow {
	return bench.KernelRow{Name: name, Iters: 1, NsPerOp: ns}
}

// writeRecord marshals rec into a file under dir and returns its path.
func writeRecord(t *testing.T, dir, name string, rec any) string {
	t.Helper()
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRun drives benchdiff end to end on generated records: the relative
// threshold of perf and kernel rows, the exact comparison of topology
// records, the kernel speedup floor, rows present on only one side, and
// the exit status with and without -exit.
func TestRun(t *testing.T) {
	okOpt := bench.TopoOptimum{Algo: "COnfLUX", C: 1, Makespan: 1}
	cases := []struct {
		name     string
		flags    []string
		old, new any
		code     int
		stdout   []string // substrings stdout must contain
		absent   []string // substrings stdout must not contain
		stderr   string   // substring stderr must contain ("" = must be empty)
	}{
		{
			name: "perf within threshold",
			old:  perfRec(perfRow("a", 1000, 0)),
			new:  perfRec(perfRow("a", 1090, 0)),
			code: 0, stdout: []string{"+9.0%"}, absent: []string{"REGRESSION"},
		},
		{
			name:   "perf time regression is loud but non-blocking",
			old:    perfRec(perfRow("a", 1000, 0)),
			new:    perfRec(perfRow("a", 1200, 0)),
			code:   0,
			stdout: []string{"REGRESSION: time"}, stderr: "1 case(s) regressed more than 10%",
		},
		{
			name:  "perf time regression fails under -exit",
			flags: []string{"-exit"},
			old:   perfRec(perfRow("a", 1000, 0)),
			new:   perfRec(perfRow("a", 1200, 0)),
			code:  1, stdout: []string{"REGRESSION: time"}, stderr: "regressed",
		},
		{
			name:  "perf threshold is relative and configurable",
			flags: []string{"-exit", "-threshold", "25"},
			old:   perfRec(perfRow("a", 1000, 0)),
			new:   perfRec(perfRow("a", 1200, 0)),
			code:  0, absent: []string{"REGRESSION"},
		},
		{
			name:  "perf faster is never a regression",
			flags: []string{"-exit"},
			old:   perfRec(perfRow("a", 1000, 0)),
			new:   perfRec(perfRow("a", 100, 0)),
			code:  0, stdout: []string{"-90.0%"}, absent: []string{"REGRESSION"},
		},
		{
			name:  "perf allocation regression above the floor",
			flags: []string{"-exit"},
			old:   perfRec(perfRow("a", 1000, 20_000)),
			new:   perfRec(perfRow("a", 1000, 40_000)),
			code:  1, stdout: []string{"REGRESSION: allocs"}, stderr: "regressed",
		},
		{
			name:  "perf allocation noise below the floor",
			flags: []string{"-exit"},
			old:   perfRec(perfRow("a", 1000, 10)),
			new:   perfRec(perfRow("a", 1000, 40)),
			code:  0, absent: []string{"REGRESSION"},
		},
		{
			name:  "perf rows on one side only are skipped",
			flags: []string{"-exit"},
			old:   perfRec(perfRow("gone", 1, 0), perfRow("shared", 1000, 0)),
			new:   perfRec(perfRow("shared", 1000, 0), perfRow("added", 1e9, 0)),
			code:  0, stdout: []string{"shared"}, absent: []string{"gone", "added", "REGRESSION"},
		},
		{
			name: "perf records sharing no row",
			old:  perfRec(perfRow("a", 1, 0)),
			new:  perfRec(perfRow("b", 1, 0)),
			code: 2, stderr: "share no cases",
		},
		{
			name:  "topology identical",
			flags: []string{"-exit"},
			old:   topoRec(1.5, okOpt, topoRow("flat", 1, 100)),
			new:   topoRec(1.5, okOpt, topoRow("flat", 1, 100)),
			code:  0, stdout: []string{"exact comparison"}, absent: []string{"REGRESSION"},
		},
		{
			name:  "topology one-ulp drift fails under -exit whatever the threshold",
			flags: []string{"-exit", "-threshold", "1000"},
			old:   topoRec(1.5, okOpt, topoRow("flat", 1, 100)),
			new:   topoRec(math.Nextafter(1.5, 2), okOpt, topoRow("flat", 1, 100)),
			code:  1, stdout: []string{"REGRESSION: determinism"}, stderr: "1 topology row(s) drifted",
		},
		{
			name: "topology byte drift is loud without -exit",
			old:  topoRec(1.5, okOpt, topoRow("flat", 1, 100)),
			new:  topoRec(1.5, okOpt, topoRow("flat", 1, 101)),
			code: 0, stdout: []string{"REGRESSION: determinism"}, stderr: "drifted",
		},
		{
			name:  "topology moved optimum",
			flags: []string{"-exit"},
			old:   topoRec(1.5, okOpt, topoRow("flat", 1, 100)),
			new:   topoRec(1.5, bench.TopoOptimum{Algo: "CANDMC", C: 4, Makespan: 1}, topoRow("flat", 1, 100)),
			code:  1, stdout: []string{"REGRESSION: optimum"}, stderr: "drifted",
		},
		{
			name:  "topology rows on one side only are skipped",
			flags: []string{"-exit"},
			old:   topoRec(1.5, okOpt, topoRow("flat", 1, 100), topoRow("hier", 2, 7)),
			new:   topoRec(1.5, okOpt, topoRow("flat", 1, 100), topoRow("dragonfly", 4, 9)),
			code:  0, absent: []string{"hier", "dragonfly", "REGRESSION"},
		},
		{
			name:  "kernels at the speedup floor",
			flags: []string{"-exit"},
			old:   kernRec(8, kernRow("gemm", 1000)),
			new:   kernRec(bench.MinGemmSpeedup512, kernRow("gemm", 1000)),
			code:  0, absent: []string{"REGRESSION"},
		},
		{
			name:  "kernels below the speedup floor fail even with steady rows",
			flags: []string{"-exit"},
			old:   kernRec(8, kernRow("gemm", 1000)),
			new:   kernRec(bench.MinGemmSpeedup512-0.01, kernRow("gemm", 1000)),
			code:  1, stdout: []string{"below the 4.0x acceptance floor"}, stderr: "1 kernel case(s) regressed",
		},
		{
			name:  "kernels row regression beyond the threshold",
			flags: []string{"-exit"},
			old:   kernRec(8, kernRow("gemm", 1000), kernRow("gone", 1)),
			new:   kernRec(8, kernRow("gemm", 1200), kernRow("added", 1)),
			code:  1, stdout: []string{"REGRESSION: time"}, absent: []string{"gone", "added"},
			stderr: "1 kernel case(s) regressed",
		},
		{
			name: "kinds cannot be mixed",
			old:  topoRec(1.5, okOpt, topoRow("flat", 1, 100)),
			new:  perfRec(perfRow("a", 1, 0)),
			code: 2, stderr: "cannot compare",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append(append([]string(nil), tc.flags...),
				writeRecord(t, dir, "old.json", tc.old), writeRecord(t, dir, "new.json", tc.new))
			var stdout, stderr bytes.Buffer
			code := run(args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, &stdout, &stderr)
			}
			for _, s := range tc.stdout {
				if !strings.Contains(stdout.String(), s) {
					t.Errorf("stdout lacks %q:\n%s", s, &stdout)
				}
			}
			for _, s := range tc.absent {
				if strings.Contains(stdout.String(), s) {
					t.Errorf("stdout unexpectedly has %q:\n%s", s, &stdout)
				}
			}
			if tc.stderr == "" && stderr.Len() != 0 {
				t.Errorf("unexpected stderr:\n%s", &stderr)
			}
			if tc.stderr != "" && !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, &stderr)
			}
		})
	}
}

// TestRunUsage: a wrong argument count or an unreadable record is a usage
// error (exit 2), never a silent pass.
func TestRunUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"only-one.json"}, &stdout, &stderr); code != 2 {
		t.Fatalf("one argument: exit %d, want 2", code)
	}
	missing := filepath.Join(t.TempDir(), "missing.json")
	if code := run([]string{missing, missing}, &stdout, &stderr); code != 2 {
		t.Fatalf("missing record: exit %d, want 2", code)
	}
}
