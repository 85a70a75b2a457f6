package lu25d

import (
	"context"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/smpi"
	"repro/internal/testutil"
	"repro/internal/trace"
)

const testTimeout = 60 * time.Second

func gridFor(pr, pc, c int) grid.Grid {
	return grid.Grid{Pr: pr, Pc: pc, Layers: c, Total: pr * pc * c}
}

func factorNumeric(t *testing.T, n, v int, g grid.Grid, seed uint64, general bool) (*mat.Matrix, *Result) {
	t.Helper()
	var a *mat.Matrix
	if general {
		a = mat.Random(n, n, seed)
	} else {
		a = mat.RandomDiagDominant(n, seed)
	}
	var res *Result
	_, err := smpi.Exec(context.Background(), smpi.Config{P: g.Total, Payload: true, Timeout: testTimeout}, func(c *smpi.Comm) error {
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
	return a, res
}

func TestNumericSingleRank(t *testing.T) {
	a, res := factorNumeric(t, 16, 4, gridFor(1, 1, 1), 1, false)
	if err := testutil.IsPermutation(res.Perm, 16); err != nil {
		t.Fatal(err)
	}
	if r := testutil.ResidualLUPerm(a, res.LU, res.Perm); r > 1e-12 {
		t.Fatalf("residual %v", r)
	}
}

func TestNumeric2DAnd25D(t *testing.T) {
	cases := []struct {
		n, v       int
		pr, pc, cc int
	}{
		{16, 4, 2, 2, 1},
		{32, 4, 2, 2, 1},
		{32, 4, 2, 2, 2},
		{48, 4, 2, 2, 3},
		{64, 8, 2, 2, 2},
		{40, 8, 2, 2, 2}, // ragged
		{60, 4, 2, 3, 2}, // rectangular layers + ragged
	}
	for _, tc := range cases {
		g := gridFor(tc.pr, tc.pc, tc.cc)
		a, res := factorNumeric(t, tc.n, tc.v, g, uint64(tc.n)*13+uint64(tc.cc), false)
		if err := testutil.IsPermutation(res.Perm, tc.n); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if r := testutil.ResidualLUPerm(a, res.LU, res.Perm); r > 1e-11 {
			t.Fatalf("%+v residual %v", tc, r)
		}
	}
}

func TestNumericGeneralMatrixWithSwaps(t *testing.T) {
	// A general matrix forces genuine tournament pivoting and row movement.
	a, res := factorNumeric(t, 48, 4, gridFor(2, 2, 2), 777, true)
	if r := testutil.ResidualLUPerm(a, res.LU, res.Perm); r > 1e-9 {
		t.Fatalf("residual %v", r)
	}
	moved := 0
	for i, p := range res.Perm {
		if i != p {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("expected physical row movement for a general matrix")
	}
}

func TestPlanSwapsBringsPivotsToSlots(t *testing.T) {
	// Simulate the plan on an explicit array and verify pivots land on top.
	n, v, tt := 16, 4, 1
	pivIDs := []int{9, 4, 14, 6} // rows to land at slots 4,5,6,7
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	for _, sw := range planSwaps(pivIDs, tt, v) {
		rows[sw[0]], rows[sw[1]] = rows[sw[1]], rows[sw[0]]
	}
	for i, p := range pivIDs {
		if rows[tt*v+i] != p {
			t.Fatalf("slot %d holds %d, want %d (rows=%v)", tt*v+i, rows[tt*v+i], p, rows)
		}
	}
}

func TestPlanSwapsChainedCollisions(t *testing.T) {
	// Pivot rows that collide with target slots must still resolve.
	n, v := 8, 4
	pivIDs := []int{1, 0, 3, 2} // all within the target tile, permuted
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	for _, sw := range planSwaps(pivIDs, 0, v) {
		rows[sw[0]], rows[sw[1]] = rows[sw[1]], rows[sw[0]]
	}
	for i, p := range pivIDs {
		if rows[i] != p {
			t.Fatalf("slot %d holds %d want %d", i, rows[i], p)
		}
	}
}

func runVolume(t *testing.T, n, v int, g grid.Grid) *trace.Report {
	t.Helper()
	rep, err := smpi.Exec(context.Background(), smpi.Config{P: g.Total, Timeout: testTimeout}, func(c *smpi.Comm) error {
		_, err := Run(c, nil, Options{N: n, V: v, Grid: g})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSwappingCostsMoreThanMasking(t *testing.T) {
	// The paper's §7.3 ablation: physical row swapping inflates the leading
	// term versus COnfLUX's row masking. Verified end-to-end in the bench
	// harness; here we check the swap phase is a visible share of traffic.
	rep := runVolume(t, 128, 4, gridFor(2, 2, 2))
	swap := rep.ByPhase["CANDMC.swap"]
	if swap == 0 {
		t.Fatal("no swap traffic metered")
	}
	total := rep.AlgorithmBytes(trace.PhaseLayout, trace.PhaseCollect)
	if float64(swap) < 0.10*float64(total) {
		t.Fatalf("swap traffic %.1f%% of %d bytes — too small to be physical swapping",
			100*float64(swap)/float64(total), total)
	}
}

func TestCANDMCOptions(t *testing.T) {
	n := 1024
	mem := float64(n) * float64(n) // plenty: c = P^{1/3}
	opt := CANDMCOptions(n, 64, mem)
	if opt.Grid.Layers != 4 || opt.Grid.Used() != 64 {
		t.Fatalf("grid %+v", opt.Grid)
	}
	// Prime p: c must divide p, so replication collapses to 1 (greedy).
	opt = CANDMCOptions(n, 7, mem)
	if opt.Grid.Layers != 1 || opt.Grid.Used() != 7 {
		t.Fatalf("grid %+v", opt.Grid)
	}
}

func TestVolumeModeRuns(t *testing.T) {
	rep := runVolume(t, 64, 4, gridFor(2, 2, 2))
	if rep.TotalBytes() == 0 {
		t.Fatal("no traffic metered")
	}
	for _, ph := range []string{"CANDMC.pivot", "CANDMC.swap", "CANDMC.panel-a10", "CANDMC.panel-a01"} {
		if rep.ByPhase[ph] == 0 {
			t.Fatalf("missing phase %s: %v", ph, rep.ByPhase)
		}
	}
}
