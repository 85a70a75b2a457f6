package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// measurePasses runs pass at least twice and then while another pass of
// the mean length fits in the budget. Each pass starts from a collected
// heap returned to the OS, with the peak-RSS mark reset, so each pass's
// peak is its own. It returns every pass's wall time and peak RSS in MB.
func measurePasses(b *bench, pass func()) (walls []time.Duration, peaks []float64) {
	var spent time.Duration
	for {
		debug.FreeOSMemory() // collects first
		if err := resetPeakRSS(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
		p0 := time.Now()
		pass()
		wall := time.Since(p0)
		walls = append(walls, wall)
		peaks = append(peaks, selfPeakRSS())
		spent += wall
		mean := spent / time.Duration(len(walls))
		if len(walls) >= 2 && spent+mean > b.budget {
			return walls, peaks
		}
	}
}

// setups runs a workload's set-up several times, reports the median as
// setup_s and returns the last set-up's product. Earlier products are
// passed to release, when it is not nil, outside the timed interval.
func setups[T any](b *bench, release func(T), setup func() (T, error)) (T, error) {
	const reps = 5
	var last T
	var ds []float64
	for k := range reps {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(t0).Seconds())
		if k < reps-1 && release != nil {
			release(v)
		}
		last = v
	}
	describe("setup_s", ds, "s")
	b.set("setup_s", median(ds), "s")
	return last, nil
}

// setPasses reports the metrics shared by the replay and numeric
// workloads, each the median over passes: pass time, the mean time of one
// of the pass's engine calls, and per-pass peak memory.
func (b *bench) setPasses(walls []time.Duration, peaks []float64, calls int) {
	ws := seconds(walls)
	describe("pass_s", ws, "s")
	describe("peak_rss_mb", peaks, "MB")
	b.set("pass_s", median(ws), "s")
	b.set("op_ms_p50", 1e3*median(ws)/float64(calls), "ms")
	b.set("peak_rss_mb", median(peaks), "MB")
}

// perCall returns the mean seconds per call of fn over at least 200ms.
func perCall(fn func()) float64 {
	fn()
	calls := 0
	t0 := time.Now()
	for calls == 0 || time.Since(t0) < 200*time.Millisecond {
		fn()
		calls++
	}
	return time.Since(t0).Seconds() / float64(calls)
}

// selfPeakRSS is this process's peak resident set in MB since start or
// the last resetPeakRSS.
func selfPeakRSS() float64 {
	mb, err := peakRSS("self")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	return mb
}

// resetPeakRSS sets this process's peak resident set to its current one.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS reads the peak resident set (VmHWM) of a process in MB; pid is a
// process id or "self".
func peakRSS(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
