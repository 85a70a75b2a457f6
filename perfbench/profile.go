package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

// cpuLayers are the layers sampled CPU time is folded into: the internal
// packages by name, "root" for the public package, "bench" for this
// benchmark's own code, "runtime" for samples with no repository frame, and
// "other" for internal packages not listed.
var cpuLayers = []string{
	"conflux", "lu25d", "lu2d", "cholesky", "dist", "grid", "smpi", "trace",
	"topo", "blas", "lapack", "mat", "trisolve", "plan",
	"root", "bench", "runtime", "other",
}

// frameLayer maps one profile frame to its layer, or "" for a frame
// outside the repository.
func frameLayer(fn string) string {
	switch {
	case strings.HasPrefix(fn, "repro/internal/"):
		pkg := strings.TrimPrefix(fn, "repro/internal/")
		if i := strings.IndexAny(pkg, "/."); i >= 0 {
			pkg = pkg[:i]
		}
		if slices.Contains(cpuLayers, pkg) {
			return pkg
		}
		return "other"
	case strings.HasPrefix(fn, "repro."):
		return "root"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	}
	return ""
}

// stackLayer charges a stack (leaf first) to the innermost internal
// package on it; failing that to the innermost root or benchmark frame;
// and to "runtime" when no repository frame is on the stack.
func stackLayer(frames []string) string {
	outer := ""
	for _, fn := range frames {
		switch l := frameLayer(fn); l {
		case "":
		case "root", "bench":
			if outer == "" {
				outer = l
			}
		default:
			return l
		}
	}
	if outer != "" {
		return outer
	}
	return "runtime"
}

// foldTraces reads the output of `go tool pprof -traces` and returns the
// sampled CPU time charged to each layer.
func foldTraces(r io.Reader) (map[string]time.Duration, error) {
	out := map[string]time.Duration{}
	var value time.Duration
	var frames []string
	inBlock := false
	flush := func() {
		if inBlock && len(frames) > 0 {
			out[stackLayer(frames)] += value
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			value = -1
			continue
		}
		if !inBlock {
			continue // header
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if value < 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("fold: bad sample value in %q: %v", line, err)
			}
			value = d
			fields = fields[1:]
			if len(fields) == 0 {
				continue
			}
		}
		frames = append(frames, fields[0]) // drops a trailing "(inline)"
	}
	flush()
	return out, sc.Err()
}

// shares converts per-layer times to percentages of their sum, with every
// layer of cpuLayers present.
func shares(t map[string]time.Duration) map[string]float64 {
	var total time.Duration
	for _, d := range t {
		total += d
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			out[l] = 100 * float64(t[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out
}

// runtimeMetrics are the runtime/metrics the traced run reads before and
// after the profiled pass.
var runtimeMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/latencies:seconds",
	"/sync/mutex/wait/total:seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// histQuantile interpolates the q-quantile of the histogram difference
// after − before, linearly inside the bucket that holds it.
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	counts := make([]uint64, len(after.Counts))
	var total uint64
	for i := range counts {
		counts[i] = after.Counts[i] - before.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 || cum+float64(c) < target {
			cum += float64(c)
			continue
		}
		lo, hi := after.Buckets[i], after.Buckets[i+1]
		if lo < 0 || hi > 1e300 { // an open-ended bucket
			return max(lo, 0)
		}
		return lo + (hi-lo)*(target-cum)/float64(c)
	}
	return after.Buckets[len(after.Buckets)-1]
}

// profiler wraps the profiled pass of a traced run: a CPU profile plus
// runtime counters read around it.
type profiler struct {
	path  string
	f     *os.File
	rt0   []metrics.Sample
	start time.Time
}

func startProfile(b *bench, name string) (*profiler, error) {
	path := filepath.Join(b.work, fmt.Sprintf("cpu-%s-%d.pprof", name, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	p := &profiler{path: path, f: f, rt0: readRuntime(), start: time.Now()}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return p, nil
}

// stop ends the profile, reports the runtime counters of the profiled
// interval and the sampled CPU share of every layer, and returns the
// interval's wall time.
func (p *profiler) stop(b *bench) (time.Duration, error) {
	pprof.StopCPUProfile()
	wall := time.Since(p.start)
	rt1 := readRuntime()
	if err := p.f.Close(); err != nil {
		return wall, err
	}
	f := func(i int) float64 { return rt1[i].Value.Float64() - p.rt0[i].Value.Float64() }
	u := func(i int) float64 { return float64(rt1[i].Value.Uint64() - p.rt0[i].Value.Uint64()) }
	h0, h1 := p.rt0[1].Value.Float64Histogram(), rt1[1].Value.Float64Histogram()
	b.set("runtime.gc_cpu_s", f(0), "s")
	b.set("runtime.sched_latency_us_p50", 1e6*histQuantile(h0, h1, 0.50), "us")
	b.set("runtime.sched_latency_us_p99", 1e6*histQuantile(h0, h1, 0.99), "us")
	b.set("runtime.mutex_wait_s", f(2), "s")
	b.set("runtime.alloc_bytes", u(3), "B")
	b.set("runtime.alloc_objects", u(4), "count")
	b.set("runtime.gc_cycles", u(5), "count")

	goBin, err := exec.LookPath("go")
	if err != nil {
		return wall, err
	}
	var out, errb bytes.Buffer
	cmd := exec.Command(goBin, "tool", "pprof", "-traces", p.path)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return wall, fmt.Errorf("go tool pprof: %v: %s", err, errb.String())
	}
	byLayer, err := foldTraces(&out)
	if err != nil {
		return wall, err
	}
	for l, v := range shares(byLayer) {
		b.set("cpu_share."+l, v, "sampled%")
	}
	return wall, nil
}
