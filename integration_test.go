package conflux

import (
	"context"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/conflux"
	"repro/internal/mat"
	"repro/internal/smpi"
)

// TestAllAlgorithmsSolveConsistently factorizes one system with all four
// implementations and checks they produce the SAME solution (the solution of
// a nonsingular system is unique, so this cross-validates the factorizations
// against each other even though their pivot orders differ).
func TestAllAlgorithmsSolveConsistently(t *testing.T) {
	n := 64
	a := RandomMatrix(n, 31)
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i)) * 3
	}
	var ref []float64
	for _, algo := range []Algorithm{COnfLUX, CANDMC, LibSci, SLATE} {
		x, err := Solve(a, b, Options{Ranks: 8, Algorithm: algo})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if ref == nil {
			ref = x
			continue
		}
		for i := range x {
			if math.Abs(x[i]-ref[i]) > 1e-7 {
				t.Fatalf("%s: x[%d]=%v vs COnfLUX %v", algo, i, x[i], ref[i])
			}
		}
	}
}

// TestSameVolumeEveryRun asserts volume-mode runs are deterministic: the
// same configuration always meters the same bytes (a prerequisite for the
// harness' reproducibility claims).
func TestSameVolumeEveryRun(t *testing.T) {
	var prev int64 = -1
	for i := 0; i < 3; i++ {
		rep, err := CommVolume(COnfLUX, 192, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := AlgorithmBytes(rep)
		if prev >= 0 && got != prev {
			t.Fatalf("run %d: %d bytes vs %d", i, got, prev)
		}
		prev = got
	}
}

// TestLinkFailureSurfacesAsError injects a link fault mid-run and checks the
// world aborts with the injected error instead of deadlocking.
func TestLinkFailureSurfacesAsError(t *testing.T) {
	n, p := 64, 4
	w := smpi.NewWorld(p, false)
	var sent atomic.Int64 // FailSend runs concurrently on every rank
	w.FailSend = func(from, to int, bytes int64) error {
		if sent.Add(bytes) > 50_000 {
			return errLinkDown
		}
		return nil
	}
	opt := conflux.DefaultOptions(n, p, 0.25*float64(n*n))
	start := time.Now()
	_, err := smpi.Exec(context.Background(), smpi.Config{World: w}, func(c *smpi.Comm) error {
		_, err := conflux.Run(c, nil, opt)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "link down") {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("failure propagation too slow — ranks likely hung")
	}
}

type linkErr struct{}

func (linkErr) Error() string { return "injected: link down" }

var errLinkDown = linkErr{}

// TestVolumeVsNumericParityAllAlgorithms pins the central phantom-mode
// invariant at API level for every algorithm (tolerances cover pivot-path
// differences; see lu2d tests for the rationale).
func TestVolumeVsNumericParityAllAlgorithms(t *testing.T) {
	n, p := 96, 8
	a := mat.Random(n, n, 17) // general matrix: realistic pivot movement
	for _, algo := range []Algorithm{COnfLUX, CANDMC, LibSci, SLATE} {
		res, err := Factorize(a, Options{Ranks: p, Algorithm: algo})
		if err != nil {
			t.Fatalf("%s numeric: %v", algo, err)
		}
		vol, err := CommVolume(algo, n, p, 0)
		if err != nil {
			t.Fatalf("%s volume: %v", algo, err)
		}
		nb := AlgorithmBytes(res.Volume)
		vb := AlgorithmBytes(vol)
		ratio := float64(vb) / float64(nb)
		if ratio < 0.8 || ratio > 1.25 {
			t.Fatalf("%s: volume-mode %d vs numeric %d (ratio %.3f)", algo, vb, nb, ratio)
		}
	}
}
