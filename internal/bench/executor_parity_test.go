package bench

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cholesky"
	"repro/internal/conflux"
	"repro/internal/costmodel"
	"repro/internal/lu25d"
	"repro/internal/lu2d"
	"repro/internal/smpi"
	"repro/internal/trace"
)

// allEngines is the full engine set of the executor-parity checks: the four
// Table 2 LU codes plus the Cholesky extension kernel.
var allEngines = append(append([]costmodel.Algorithm(nil), costmodel.Algorithms...), costmodel.Cholesky)

// runEngineExec replays one engine's volume-mode schedule through smpi.Exec
// and returns the trace report. A nil world runs on a fresh world built from
// Config.P; a non-nil one runs on the caller-built world.
func runEngineExec(algo costmodel.Algorithm, n, p int, mem float64, w *smpi.World) (*trace.Report, error) {
	return smpi.Exec(context.Background(), smpi.Config{P: p, World: w}, func(c *smpi.Comm) error {
		var err error
		switch algo {
		case costmodel.LibSci:
			_, err = lu2d.Run(c, nil, lu2d.LibSciOptions(n, p, LibSciNB))
		case costmodel.SLATE:
			_, err = lu2d.Run(c, nil, lu2d.SLATEOptions(n, p))
		case costmodel.CANDMC:
			_, err = lu25d.Run(c, nil, lu25d.CANDMCOptions(n, p, mem))
		case costmodel.COnfLUX:
			_, err = conflux.Run(c, nil, conflux.DefaultOptions(n, p, mem))
		case costmodel.Cholesky:
			_, err = cholesky.Run(c, nil, cholesky.DefaultOptions(n, p, mem))
		}
		return err
	})
}

// requireExecutorParity asserts that two runs of the same schedule agree:
// byte-identical volume (per rank and per phase), bit-identical simulated
// time (per-rank clocks, so the makespan too) and the same executor stamp.
func requireExecutorParity(t *testing.T, label string, g, e *trace.Report) {
	t.Helper()
	if g.Executor != "goroutines" || e.Executor != g.Executor {
		t.Fatalf("%s: reports stamped %q and %q, want goroutines", label, g.Executor, e.Executor)
	}
	for r := 0; r < g.P; r++ {
		if g.Sent[r] != e.Sent[r] || g.Recv[r] != e.Recv[r] || g.Msgs[r] != e.Msgs[r] {
			t.Fatalf("%s rank %d: sent/recv/msgs %d/%d/%d vs %d/%d/%d",
				label, r, g.Sent[r], g.Recv[r], g.Msgs[r], e.Sent[r], e.Recv[r], e.Msgs[r])
		}
	}
	if len(g.ByPhase) != len(e.ByPhase) {
		t.Fatalf("%s: phase sets differ: %v vs %v", label, g.ByPhase, e.ByPhase)
	}
	for ph, v := range g.ByPhase {
		if e.ByPhase[ph] != v {
			t.Fatalf("%s phase %q: %d vs %d bytes", label, ph, v, e.ByPhase[ph])
		}
	}
	for ph, v := range g.PhaseMsgs {
		if e.PhaseMsgs[ph] != v {
			t.Fatalf("%s phase %q: %d vs %d msgs", label, ph, v, e.PhaseMsgs[ph])
		}
	}
	if g.Time.Makespan != e.Time.Makespan {
		t.Fatalf("%s: makespan %v != %v", label, g.Time.Makespan, e.Time.Makespan)
	}
	for r := range g.Time.Clock {
		if g.Time.Clock[r] != e.Time.Clock[r] ||
			g.Time.Busy[r] != e.Time.Busy[r] || g.Time.Wait[r] != e.Time.Wait[r] {
			t.Fatalf("%s rank %d: clock/busy/wait %v/%v/%v vs %v/%v/%v",
				label, r, g.Time.Clock[r], g.Time.Busy[r], g.Time.Wait[r],
				e.Time.Clock[r], e.Time.Busy[r], e.Time.Wait[r])
		}
	}
}

// requireRunParity runs one engine alone, then twice at once — once on a
// fresh world, once on a caller-built world — and requires all three
// reports to agree. The concurrent pair shares the wire-buffer pools, so
// cross-world interference or goroutine-schedule-dependent accounting
// shows up as a diff (or, under -race, as a race report).
func requireRunParity(t *testing.T, label string, algo costmodel.Algorithm, n, p int, mem float64) {
	t.Helper()
	ref, err := runEngineExec(algo, n, p, mem, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var (
		reps [2]*trace.Report
		errs [2]error
		wg   sync.WaitGroup
	)
	worlds := [2]*smpi.World{nil, smpi.NewWorldMachine(p, false, trace.DefaultMachine())}
	for i := range worlds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = runEngineExec(algo, n, p, mem, worlds[i])
		}(i)
	}
	wg.Wait()
	for i, name := range []string{"fresh", "caller-world"} {
		if errs[i] != nil {
			t.Fatalf("%s/%s: %v", label, name, errs[i])
		}
		requireExecutorParity(t, label+"/"+name, ref, reps[i])
	}
}

// TestExecutorParityAllEngines pins run-to-run parity of the goroutine
// executor at engine level: for all five engines and awkward small world
// sizes (including non-power-of-two, non-square p), a run alone and two
// concurrent runs produce byte-identical volume and bit-identical
// simulated time.
func TestExecutorParityAllEngines(t *testing.T) {
	const n = 64
	for _, algo := range allEngines {
		for _, p := range []int{3, 4, 5, 6} {
			mem := costmodel.MaxMemoryParams(n, p).M
			requireRunParity(t, fmt.Sprintf("%s/p=%d", algo, p), algo, n, p, mem)
		}
	}
}

// TestExecutorParityPaperScaleSpot is the paper-scale spot check of the
// same criterion: one COnfLUX replay at a Fig. 6-shaped geometry. Skipped
// under -short (the full tier-1 run covers it).
func TestExecutorParityPaperScaleSpot(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale spot check skipped with -short")
	}
	n, p := 2048, 64
	mem := costmodel.MaxMemoryParams(n, p).M
	requireRunParity(t, "COnfLUX/paper-spot", costmodel.COnfLUX, n, p, mem)
}
