package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"repro/internal/blas"
)

// metricSpec names a reported metric, its unit and its better direction.
// BENCHMARK.json lists the same metrics; a test keeps the two in step.
type metricSpec struct{ Name, Unit, Better string }

// endToEnd are the untraced run's metrics, reported on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"pass_s", "s", "lower"},
	{"op_ms_p50", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, reported on every workload.
var perLayer = func() []metricSpec {
	var out []metricSpec
	add := func(name, unit, better string) { out = append(out, metricSpec{name, unit, better}) }
	for _, a := range replayEngines {
		add("conflux.commvolume_s."+string(a), "s", "lower")
	}
	for _, a := range numericEngines {
		add("conflux.factorize_s."+string(a), "s", "lower")
		add("conflux.solve_s."+string(a), "s", "lower")
	}
	add("smpi.world_start_s", "s", "lower")
	add("smpi.world_end_s", "s", "lower")
	add("smpi.empty_world_s", "s", "lower")
	for _, a := range replayEngines {
		add("smpi.msgs."+string(a), "count", "lower")
	}
	for _, a := range replayEngines {
		add("engine.run_s."+string(a), "s", "lower")
	}
	for _, a := range replayEngines {
		add("trace.bytes."+string(a), "B", "lower")
		add("trace.max_rank_bytes."+string(a), "B", "lower")
		add("trace.sim_makespan_s."+string(a), "sim_s", "lower")
	}
	add("topo.cold_s_p50.flat", "s", "lower")
	add("topo.cold_s_p50.contended", "s", "lower")
	add("dist.scatter_s", "s", "lower")
	add("dist.gather_s", "s", "lower")
	add("blas.gemm_gflops.tile", "GFLOP/s", "higher")
	add("blas.gemm_gflops.512", "GFLOP/s", "higher")
	add("blas.trsm_gflops.tile", "GFLOP/s", "higher")
	add("lapack.getrf_gflops.panel", "GFLOP/s", "higher")
	add("plan.key_us", "us", "lower")
	add("plan.model_us", "us", "lower")
	add("plan.evaluate_hit_us", "us", "lower")
	add("plan.simulate_s", "s", "lower")
	add("plan.hit_ratio", "ratio", "higher")
	add("plan.simulations", "count", "lower")
	add("plan.joined", "count", "higher")
	add("confluxd.hit_ms_p99", "ms", "lower")
	add("confluxd.hit_rps", "1/s", "higher")
	add("confluxd.http_hit_overhead_ms", "ms", "lower")
	add("runtime.gc_cpu_s", "s", "lower")
	add("runtime.sched_latency_us_p50", "us", "lower")
	add("runtime.sched_latency_us_p99", "us", "lower")
	add("runtime.mutex_wait_s", "s", "lower")
	add("runtime.alloc_bytes", "B", "lower")
	add("runtime.alloc_objects", "count", "lower")
	add("runtime.gc_cycles", "count", "lower")
	for _, l := range cpuLayers {
		add("cpu_share."+l, "sampled%", "lower")
	}
	add("trace_overhead_pct", "%", "lower")
	return out
}()

// provenance identifies the code, host and inputs behind a result.
func provenance(b *bench, workload string) map[string]any {
	execs := []string{}
	for e := range b.executors {
		execs = append(execs, e)
	}
	slices.Sort(execs)
	return map[string]any{
		"workload":    workload,
		"trace":       b.traced,
		"seed":        b.seed,
		"seconds":     b.budget.Seconds(),
		"commit":      gitCommit(b.root),
		"tree_sha256": treeHash(b.root),
		"go_version":  runtime.Version(),
		"goos":        runtime.GOOS,
		"goarch":      runtime.GOARCH,
		"cpu_model":   cpuModel(),
		"num_cpu":     runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"kernel_isa":  blas.KernelISA(),
		"executors":   execs,
	}
}

// gitCommit is the checkout's commit, or "" when root is not the top of a
// git work tree (git is not asked to search the directories above it).
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return ""
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// treeHash hashes the Go sources and module files of the checkout, so a
// result names its code even where there is no git history.
func treeHash(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || strings.HasSuffix(path, ".s")) {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
