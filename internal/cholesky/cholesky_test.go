package cholesky

import (
	"context"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/smpi"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/xpart"
)

const testTimeout = 60 * time.Second

// spd and residual are the shared testutil helpers (deduped there so the
// conformance and solve suites check the same definitions).
func spd(n int, seed uint64) *mat.Matrix { return testutil.SPD(n, seed) }

func residual(a, l *mat.Matrix) float64 { return testutil.ResidualCholesky(a, l) }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestPotrfReference(t *testing.T) {
	a := spd(12, 3)
	l := a.Clone()
	if err := Potrf(l); err != nil {
		t.Fatal(err)
	}
	if r := residual(a, l); r > 1e-12 {
		t.Fatalf("residual %v", r)
	}
	// Upper triangle must be zeroed.
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			if l.At(i, j) != 0 {
				t.Fatalf("upper (%d,%d) = %v", i, j, l.At(i, j))
			}
		}
	}
}

func TestPotrfNotPD(t *testing.T) {
	a := mat.New(3, 3) // zero matrix
	if err := Potrf(a); err != ErrNotPD {
		t.Fatalf("err = %v", err)
	}
}

func TestTrsmRightLowerT(t *testing.T) {
	n := 6
	a := spd(n, 5)
	l := a.Clone()
	if err := Potrf(l); err != nil {
		t.Fatal(err)
	}
	// B = X·Lᵀ for known X; solve must recover X.
	x := mat.Random(4, n, 9)
	b := mat.New(4, n)
	for i := 0; i < 4; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k <= j; k++ {
				s += x.At(i, k) * l.At(j, k)
			}
			b.Set(i, j, s)
		}
	}
	TrsmRightLowerT(l, b)
	if d := mat.MaxAbsDiff(b, x); d > 1e-10 {
		t.Fatalf("trsm diff %v", d)
	}
}

func factorNumeric(t *testing.T, n, v int, g grid.Grid, seed uint64) (*mat.Matrix, *Result, *trace.Report) {
	t.Helper()
	a := spd(n, seed)
	var res *Result
	rep, err := smpi.Exec(context.Background(), smpi.Config{P: g.Total, Payload: true, Timeout: testTimeout}, func(c *smpi.Comm) error {
		var in *mat.Matrix
		if c.Rank() == 0 {
			in = a
		}
		r, err := Run(c, in, Options{N: n, V: v, Grid: g})
		if c.Rank() == 0 {
			res = r
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return a, res, rep
}

func TestNumericSingleRank(t *testing.T) {
	a, res, _ := factorNumeric(t, 16, 4, grid.Grid{Pr: 1, Pc: 1, Layers: 1, Total: 1}, 1)
	if r := residual(a, res.L); r > 1e-12 {
		t.Fatalf("residual %v", r)
	}
}

func TestNumericDistributed(t *testing.T) {
	cases := []struct {
		n, v, pr, cc int
	}{
		{16, 4, 2, 1},
		{32, 4, 2, 1},
		{32, 4, 2, 2},
		{48, 4, 2, 3},
		{64, 8, 2, 2},
		{40, 8, 2, 2}, // ragged tiles
		{48, 4, 3, 1}, // 3x3 layer
	}
	for _, tc := range cases {
		g := grid.Grid{Pr: tc.pr, Pc: tc.pr, Layers: tc.cc, Total: tc.pr * tc.pr * tc.cc}
		a, res, _ := factorNumeric(t, tc.n, tc.v, g, uint64(tc.n)*7+uint64(tc.cc))
		if r := residual(a, res.L); r > 1e-10 {
			t.Fatalf("%+v residual %v", tc, r)
		}
	}
}

func TestNonSquareLayerRejected(t *testing.T) {
	_, err := smpi.Exec(context.Background(), smpi.Config{P: 6, Timeout: testTimeout}, func(c *smpi.Comm) error {
		_, err := Run(c, nil, Options{N: 16, V: 4, Grid: grid.Grid{Pr: 2, Pc: 3, Layers: 1, Total: 6}})
		return err
	})
	if err == nil {
		t.Fatal("expected square-layer panic")
	}
}

func TestNotPDReported(t *testing.T) {
	n := 16
	a := mat.New(n, n) // zero matrix, not PD
	_, err := smpi.Exec(context.Background(), smpi.Config{P: 4, Payload: true, Timeout: testTimeout}, func(c *smpi.Comm) error {
		var in *mat.Matrix
		if c.Rank() == 0 {
			in = a
		}
		_, err := Run(c, in, Options{N: n, V: 4, Grid: grid.Grid{Pr: 2, Pc: 2, Layers: 1, Total: 4}})
		return err
	})
	if err == nil {
		t.Fatal("expected ErrNotPD")
	}
}

func TestVolumeModeAndBound(t *testing.T) {
	n, p := 128, 8
	g := grid.Grid{Pr: 2, Pc: 2, Layers: 2, Total: p}
	rep, err := smpi.Exec(context.Background(), smpi.Config{P: p, Timeout: testTimeout}, func(c *smpi.Comm) error {
		_, err := Run(c, nil, Options{N: n, V: 4, Grid: g})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	bytes := rep.AlgorithmBytes(trace.PhaseLayout, trace.PhaseCollect)
	if bytes <= 0 {
		t.Fatal("no traffic")
	}
	// Measured volume must sit above the derived lower bound.
	m := float64(n) * float64(n) * 2 / float64(p)
	lower := xpart.CholeskyLowerBound(n, m) / float64(p) * trace.BytesPerElement * float64(p)
	if float64(bytes) < lower {
		t.Fatalf("measured %d below lower bound %.0f", bytes, lower)
	}
}

func TestDefaultOptionsSquare(t *testing.T) {
	for _, p := range []int{1, 4, 8, 27, 64, 100} {
		opt := DefaultOptions(1024, p, 1024*1024)
		if opt.Grid.Pr != opt.Grid.Pc {
			t.Fatalf("p=%d: non-square %+v", p, opt.Grid)
		}
		if !opt.Grid.Valid() {
			t.Fatalf("p=%d: invalid %+v", p, opt.Grid)
		}
		if opt.V < opt.Grid.Layers {
			t.Fatalf("p=%d: v < c", p)
		}
	}
}

// Property: Potrf(L·Lᵀ) recovers L for random lower-triangular L with
// positive diagonal.
func TestQuickPotrfRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		g := mat.NewRNG(seed)
		n := 2 + g.Intn(10)
		l := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				l.Set(i, j, g.Float64()-0.5)
			}
			l.Set(i, i, 0.5+g.Float64())
		}
		a := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k <= min(i, j); k++ {
					s += l.At(i, k) * l.At(j, k)
				}
				a.Set(i, j, s)
			}
		}
		if err := Potrf(a); err != nil {
			return false
		}
		return mat.MaxAbsDiff(a, l) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
