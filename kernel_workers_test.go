package conflux

import (
	"math"
	"testing"

	"repro/internal/blas"
	"repro/internal/mat"
)

// TestWithKernelWorkers pins the public local-kernel parallelism contract
// (DESIGN.md §15): WithKernelWorkers validates its argument, Config
// resolves the width (default 1), and a numeric factorization is
// bit-identical whatever width the session configures — the kernel knob
// must change nothing observable.
func TestWithKernelWorkers(t *testing.T) {
	defer blas.SetKernelWorkers(1)
	if _, err := New(WithKernelWorkers(0)); err == nil {
		t.Fatal("WithKernelWorkers(0) accepted")
	}
	if _, err := New(WithKernelWorkers(-2)); err == nil {
		t.Fatal("WithKernelWorkers(-2) accepted")
	}
	def, err := New(WithRanks(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := def.Config().KernelWorkers; got != 1 {
		t.Fatalf("default Config().KernelWorkers = %d, want 1", got)
	}
	n, p := 512, 4 // big enough that the panel GEMMs take the blocked path
	a := mat.Random(n, n, 99)
	base, err := def.Factorize(t.Context(), a)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		s, err := New(WithRanks(p), WithKernelWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Config().KernelWorkers; got != w {
			t.Fatalf("Config().KernelWorkers = %d, want %d", got, w)
		}
		res, err := s.Factorize(t.Context(), a)
		if err != nil {
			t.Fatalf("kernel workers %d: %v", w, err)
		}
		for i := range base.Perm {
			if base.Perm[i] != res.Perm[i] {
				t.Fatalf("kernel workers %d: pivot %d diverged", w, i)
			}
		}
		for i := 0; i < n; i++ {
			r1, r2 := base.LU.Row(i), res.LU.Row(i)
			for j := range r1 {
				if math.Float64bits(r1[j]) != math.Float64bits(r2[j]) {
					t.Fatalf("kernel workers %d: LU(%d,%d) diverged", w, i, j)
				}
			}
		}
	}
}

// TestAutoExecutorResolution pins the provenance stamp: numeric factorizations and
// volume replays both run on the one goroutine executor, and Result and
// VolumeReport say so.
func TestAutoExecutorResolution(t *testing.T) {
	s, err := New(WithRanks(4))
	if err != nil {
		t.Fatal(err)
	}
	vol, err := s.CommVolume(t.Context(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if vol.Executor != "goroutines" {
		t.Fatalf("volume replay stamped %q, want goroutines", vol.Executor)
	}
	res, err := s.Factorize(t.Context(), mat.RandomDiagDominant(48, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Executor != "goroutines" || res.Volume.Executor != "goroutines" {
		t.Fatalf("factorization stamped %q / report %q, want goroutines", res.Executor, res.Volume.Executor)
	}
}
