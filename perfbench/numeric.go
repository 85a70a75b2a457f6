package main

import (
	"context"
	"math"
	"math/rand/v2"
	"time"

	conflux "repro"
	"repro/internal/blas"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/lapack"
	"repro/internal/mat"
	"repro/internal/smpi"
)

// The numeric point: Factorize then SolveManyFactoredContext, COnfLUX then
// LibSci.
const (
	numericN     = 2048
	numericP     = 16
	numericRHS   = 16
	numericWarmN = 256
	maxBackward  = 1e-9
	// libSciTile is LibSci's default block size, the tile the layer probes
	// time the level-3 kernels and the layout collectives at.
	libSciTile = 32
)

var numericEngines = []conflux.Algorithm{conflux.COnfLUX, conflux.LibSci}

// numericInput is the seeded system of one numeric run.
type numericInput struct {
	a, b     *conflux.Matrix
	sessions map[conflux.Algorithm]*conflux.Session
}

func newNumericInput(ctx context.Context, seed uint64) (numericInput, error) {
	in := numericInput{
		a:        conflux.RandomMatrix(numericN, seed),
		b:        conflux.NewMatrix(numericN, numericRHS),
		sessions: map[conflux.Algorithm]*conflux.Session{},
	}
	rng := rand.New(rand.NewPCG(seed, 0x6e756d65726963))
	for i := range in.b.Data {
		in.b.Data[i] = 2*rng.Float64() - 1
	}
	warm := conflux.RandomMatrix(numericWarmN, seed)
	for _, a := range numericEngines {
		s, err := conflux.New(conflux.WithRanks(numericP), conflux.WithAlgorithm(a))
		if err != nil {
			return in, err
		}
		if _, err := s.Factorize(ctx, warm); err != nil {
			return in, err
		}
		in.sessions[a] = s
	}
	return in, nil
}

// numericTimes is one engine's factorize and solve time.
type numericTimes struct{ factorize, solve time.Duration }

// numericPass factorizes and solves with every engine, checks each
// solution's backward error and returns the per-engine times.
func numericPass(ctx context.Context, b *bench, in numericInput) map[conflux.Algorithm]numericTimes {
	out := map[conflux.Algorithm]numericTimes{}
	for _, a := range numericEngines {
		t0 := time.Now()
		res, err := in.sessions[a].Factorize(ctx, in.a)
		t1 := time.Now()
		if err != nil {
			b.fail("factorize "+string(a), err)
			continue
		}
		x, err := res.SolveManyFactoredContext(ctx, in.b)
		t2 := time.Now()
		if err != nil {
			b.fail("solve "+string(a), err)
			continue
		}
		b.executors[res.Executor] = true
		berr := backwardError(in.a, x, in.b)
		b.check(berr <= maxBackward, "numeric %s: backward error %.3g > %g", a, berr, maxBackward)
		out[a] = numericTimes{t1.Sub(t0), t2.Sub(t1)}
	}
	return out
}

// backwardError is ‖B − A·X‖∞ / (‖A‖∞·‖X‖∞ + ‖B‖∞), computed here rather
// than with the kernels under test.
func backwardError(a, x, b *mat.Matrix) float64 {
	r := make([]float64, b.Cols)
	var rmax, amax, xmax, bmax float64
	for i := 0; i < a.Rows; i++ {
		copy(r, b.Row(i))
		var arow float64
		for k, aik := range a.Row(i) {
			arow += math.Abs(aik)
			for j, xkj := range x.Row(k) {
				r[j] -= aik * xkj
			}
		}
		amax = max(amax, arow)
		rmax = max(rmax, rowSum(r))
		xmax = max(xmax, rowSum(x.Row(i)))
		bmax = max(bmax, rowSum(b.Row(i)))
	}
	return rmax / (amax*xmax + bmax)
}

func rowSum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

func runNumeric(b *bench) error {
	ctx := context.Background()
	in, err := setups(b, nil, func() (numericInput, error) { return newNumericInput(ctx, b.seed) })
	if err != nil {
		return err
	}
	walls, peaks := measurePasses(b, func() { numericPass(ctx, b, in) })
	b.setPasses(walls, peaks, len(numericEngines))
	return nil
}

// numericLayers is the numeric part of the traced run: a pass through the
// public API timed per call (repeated under the profiler when the run
// traces the numeric workload), the layout collectives at the numeric
// point, and the local kernels at the engines' tile shapes.
func numericLayers(ctx context.Context, b *bench, profiled bool) error {
	in, err := newNumericInput(ctx, b.seed)
	if err != nil {
		return err
	}
	pass := b.spans.begin("numeric pass", -1)
	t0 := time.Now()
	times := numericPass(ctx, b, in)
	untraced := time.Since(t0)
	b.spans.end(pass)
	for a, t := range times {
		b.set("conflux.factorize_s."+string(a), t.factorize.Seconds(), "s")
		b.set("conflux.solve_s."+string(a), t.solve.Seconds(), "s")
	}
	if profiled {
		prof, err := startProfile(b, "numeric")
		if err != nil {
			return err
		}
		pass := b.spans.begin("numeric pass (profiled)", -1)
		numericPass(ctx, b, in)
		b.spans.end(pass)
		traced, err := prof.stop(b)
		if err != nil {
			return err
		}
		b.set("trace_overhead_pct", 100*(traced.Seconds()-untraced.Seconds())/untraced.Seconds(), "%")
	}
	if err := layoutLayers(ctx, b, in.a); err != nil {
		return err
	}
	kernelLayers(b)
	return nil
}

// layoutLayers times dist.Scatter and dist.Gather of the numeric matrix
// over the numeric P on LibSci's block-cyclic layout (the slowest rank's
// span, median of three) and checks the gathered copy.
func layoutLayers(ctx context.Context, b *bench, a *mat.Matrix) error {
	g := grid.Square2D(numericP)
	bc := grid.BlockCyclic{G: g, V: libSciTile, N: numericN}
	var scatter, gather []float64
	for range 3 {
		sStart := make([]time.Time, numericP)
		sEnd := make([]time.Time, numericP)
		gEnd := make([]time.Time, numericP)
		back := mat.New(numericN, numericN)
		_, err := smpi.Exec(ctx, smpi.Config{P: numericP, Payload: true}, func(c *smpi.Comm) error {
			r := c.Rank()
			row, col, layer := g.Coords(r)
			s := dist.NewStore(bc, row, col, layer, true)
			var src, dst *mat.Matrix
			if r == 0 {
				src, dst = a, back
			}
			sStart[r] = time.Now()
			dist.Scatter(c, 0, src, g, s)
			sEnd[r] = time.Now()
			dist.Gather(c, 0, dst, g, s)
			gEnd[r] = time.Now()
			return nil
		})
		if err != nil {
			b.fail("scatter/gather", err)
			continue
		}
		b.check(equalMatrix(a, back), "scatter/gather: gathered matrix differs from the input")
		var sMax, gMax time.Duration
		for r := range numericP {
			sMax = max(sMax, sEnd[r].Sub(sStart[r]))
			gMax = max(gMax, gEnd[r].Sub(sEnd[r]))
		}
		scatter = append(scatter, sMax.Seconds())
		gather = append(gather, gMax.Seconds())
	}
	if len(scatter) == 0 {
		return errNoSample("scatter/gather")
	}
	b.set("dist.scatter_s", median(scatter), "s")
	b.set("dist.gather_s", median(gather), "s")
	return nil
}

func equalMatrix(x, y *mat.Matrix) bool {
	for i := 0; i < x.Rows; i++ {
		xr, yr := x.Row(i), y.Row(i)
		for j := range xr {
			if xr[j] != yr[j] {
				return false
			}
		}
	}
	return true
}

// kernelLayers reports the local kernels' rates: GEMM at the engines' tile
// shape (below the packed-kernel cutoff) and at 512 (the packed path), a
// tile TRSM, and the unblocked panel factorization at LibSci's local panel
// shape.
func kernelLayers(b *bench) {
	rng := rand.New(rand.NewPCG(b.seed, 0x626c6173))
	fill := func(m *mat.Matrix) *mat.Matrix {
		for i := range m.Data {
			m.Data[i] = 2*rng.Float64() - 1
		}
		return m
	}
	t := libSciTile
	ta, tb, tc := fill(mat.New(t, t)), fill(mat.New(t, t)), mat.New(t, t)
	b.set("blas.gemm_gflops.tile", rate(2*t*t*t, func() { blas.Gemm(1, ta, tb, 1, tc) }), "GFLOP/s")
	const big = 512
	ba, bb, bc := fill(mat.New(big, big)), fill(mat.New(big, big)), mat.New(big, big)
	b.set("blas.gemm_gflops.512", rate(2*big*big*big, func() { blas.Gemm(1, ba, bb, 0, bc) }), "GFLOP/s")

	l := fill(mat.New(t, t))
	for i := range t {
		l.Set(i, i, float64(t)) // well conditioned
	}
	rhs, work := fill(mat.New(t, t)), mat.New(t, t)
	b.set("blas.trsm_gflops.tile", rate(t*t*t, func() {
		copy(work.Data, rhs.Data)
		blas.TrsmLowerLeft(l, work, false)
	}), "GFLOP/s")

	rows := numericN / grid.Square2D(numericP).Pr
	panel, pw := fill(mat.New(rows, t)), mat.New(rows, t)
	ipiv := make([]int, t)
	flops := rows*t*t - t*t*t/3
	b.set("lapack.getrf_gflops.panel", rate(flops, func() {
		copy(pw.Data, panel.Data)
		if err := lapack.Getrf2(pw, ipiv); err != nil {
			panic(err) // a random dense panel is nonsingular
		}
	}), "GFLOP/s")
}

// rate returns fn's throughput in GFLOP/s for flops floating-point
// operations per call.
func rate(flops int, fn func()) float64 { return float64(flops) / perCall(fn) / 1e9 }
