// Package conflux (module "repro") is the public API of this reproduction of
// "On the Parallel I/O Optimality of Linear Algebra Kernels: Near-Optimal LU
// Factorization" (Kwasniewski et al., PPoPP 2021).
//
// The v2 surface is Session-based: conflux.New constructs a handle on one
// simulated machine configuration via functional options, and its methods —
// Factorize, Solve/SolveMany, CommVolume, CommVolumeSolve, FactorizeSPD —
// run jobs against it under a context.Context:
//
//   - Factorize / Solve / SolveMany run the COnfLUX near-communication-
//     optimal LU factorization (or any registered engine) and the
//     distributed multi-RHS triangular solve on a simulated P-rank
//     machine, with numeric results gathered at the caller and both
//     phases metered and timed (DESIGN.md §8). Numeric payloads run on
//     cache-blocked local kernels whose results are bit-identical at
//     every WithKernelWorkers width (DESIGN.md §15).
//   - CommVolume replays an engine's communication schedule in volume
//     mode and returns the metered traffic — the paper's measurement
//     methodology (§8).
//   - LowerBoundLU and friends expose the X-Partitioning I/O lower bounds
//     of §3–§6.
//
// Engines dispatch through internal/engine's registry (DESIGN.md §9);
// failures carry the typed sentinels ErrShape, ErrSingular,
// ErrUnknownAlgorithm, and ErrCanceled for errors.Is. The original free
// functions (Factorize, SolveMany, CommVolume, ...) remain as deprecated
// thin wrappers over a one-shot Session.
//
// See README.md for a tour and DESIGN.md for the system inventory.
package conflux

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/costmodel"
	"repro/internal/mat"
	"repro/internal/oocore"
	"repro/internal/smpi"
	"repro/internal/trace"
	"repro/internal/trisolve"
	"repro/internal/xpart"
)

// Matrix is a dense row-major float64 matrix (re-exported).
type Matrix = mat.Matrix

// VolumeReport is a communication-volume report (re-exported). Its Time
// field carries the simulated-time view of the same run (TimeReport).
type VolumeReport = trace.Report

// TimeReport is the α-β simulated-time report of a run: makespan, per-rank
// busy/wait split, and critical-path phase attribution (re-exported).
type TimeReport = trace.TimeReport

// Machine is the α-β (latency–bandwidth) machine parameter set the
// simulated clocks advance with (re-exported from internal/costmodel).
// Its IsZero method distinguishes "unset" from the meaningful all-free
// machine, which sessions request explicitly with WithFreeMachine.
type Machine = costmodel.Machine

// DefaultMachine returns paper-scale interconnect parameters (Piz
// Daint-class: ~1 µs latency, ~10 GB/s bandwidth).
func DefaultMachine() Machine { return costmodel.DefaultMachine() }

// NewMatrix allocates a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix { return mat.New(r, c) }

// RandomMatrix returns a deterministic random n×n matrix, diagonally
// boosted so factorizations are well conditioned.
func RandomMatrix(n int, seed uint64) *Matrix { return mat.RandomDiagDominant(n, seed) }

// Algorithm names a registered engine (re-exported).
type Algorithm = costmodel.Algorithm

// The registered engines: the four algorithms of the paper's evaluation
// (Table 2) plus the Cholesky extension kernel. Engines() lists the set at
// runtime.
const (
	COnfLUX  = costmodel.COnfLUX
	CANDMC   = costmodel.CANDMC
	LibSci   = costmodel.LibSci
	SLATE    = costmodel.SLATE
	Cholesky = costmodel.Cholesky
)

// Options configures a distributed factorization.
//
// Deprecated: Options is the v1 configuration surface. Use New with
// functional options (WithRanks, WithAlgorithm, WithMachine, ...) — note
// the v1 zero-value rule below makes an all-free machine inexpressible
// here, which WithFreeMachine fixes.
type Options struct {
	// Ranks is the number of simulated processors P (default 4).
	Ranks int
	// Memory is the per-rank fast memory M in elements (default: enough
	// for maximum replication, M = N²/P^(2/3), the paper's setting).
	Memory float64
	// Algorithm selects the implementation (default COnfLUX).
	Algorithm Algorithm
	// Timeout bounds the simulated run (default 10 minutes).
	Timeout time.Duration
	// Machine sets the α-β parameters of the simulated-time model. For
	// v1 compatibility the zero value (Machine.IsZero) selects
	// DefaultMachine() — an all-free machine is therefore not expressible
	// here; use a Session with WithFreeMachine for that.
	Machine Machine
	// SolveRanks is the number of simulated ranks the distributed
	// triangular solve runs on (default: Ranks). The solve uses a 2D
	// grid over all SolveRanks, independent of the factorization grid.
	SolveRanks int
	// RHS is the number of right-hand sides volume-mode solve replays
	// generate (default 1). Numeric solves infer the width from B.
	RHS int
	// RefineSweeps bounds the iterative-refinement loop of Solve and
	// SolveMany: after the direct solve, up to RefineSweeps rounds of
	// residual recomputation and distributed re-solve (default 0: none).
	RefineSweeps int
}

func (o Options) withDefaults(n int) Options {
	if o.Ranks <= 0 {
		o.Ranks = 4
	}
	if o.Memory <= 0 {
		o.Memory = costmodel.MaxMemoryParams(n, o.Ranks).M
	}
	if o.Algorithm == "" {
		o.Algorithm = COnfLUX
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Minute
	}
	if o.Machine.IsZero() {
		o.Machine = DefaultMachine()
	}
	if o.SolveRanks <= 0 {
		o.SolveRanks = o.Ranks
	}
	if o.RHS <= 0 {
		o.RHS = 1
	}
	return o
}

// session resolves the v1 options at dimension n into a one-shot Session —
// the single code path both API generations run on, which is what pins the
// v1 wrappers byte-identical to the v2 surface.
func (o Options) session(n int) (*Session, error) {
	od := o.withDefaults(n)
	return New(
		WithRanks(od.Ranks),
		WithMemory(od.Memory),
		WithAlgorithm(od.Algorithm),
		WithMachine(od.Machine),
		WithSolveRanks(od.SolveRanks),
		WithRHS(od.RHS),
		WithRefineSweeps(od.RefineSweeps),
		WithTimeout(od.Timeout),
	)
}

// Result is the outcome of a distributed factorization.
//
// Concurrency: the factor fields (LU, Perm, Volume, Time, CommTime) are
// written once by Factorize and safe for concurrent reads afterwards.
// Concurrent solves on one Result are safe — the solve accounting
// (SolveVolume, SolveBytes, SolveTime) is mutex-guarded — but those three
// fields must only be read while no solve is in flight.
type Result struct {
	// LU holds the combined factors: row i of LU is row Perm[i] of P·A,
	// unit-lower L below the diagonal, U on and above.
	LU *Matrix
	// Perm maps factor position -> original row index (A[Perm,:] = L·U).
	Perm []int
	// Volume is the communication-volume report of the run; Volume.Time
	// holds the full simulated-time detail.
	Volume *VolumeReport
	// Time is the simulated α-β makespan of the run in seconds: the final
	// logical clock of the slowest rank, waits included. The simulation
	// times algorithm communication only — computation is not modeled, and
	// the layout/collect housekeeping phases are untimed, mirroring the
	// AlgorithmBytes volume exclusion (§7.4).
	Time float64
	// CommTime is the critical rank's pure transfer time (α+β·bytes work,
	// excluding waits): Time = CommTime + critical-rank wait.
	CommTime float64
	// Executor is the run executor that ran the factorization (always
	// "goroutines"). Provenance only.
	Executor string
	// SolveVolume is the communication report of the most recent
	// distributed solve run on these factors (nil until one runs). Its
	// timed phases are trisolve's "solve.fwd" and "solve.back"; the RHS
	// scatter and solution gather are labeled layout/collect and excluded,
	// mirroring the factorization accounting.
	SolveVolume *VolumeReport
	// SolveBytes accumulates the solve-phase traffic (forward plus back
	// substitution bytes) across every distributed solve on this Result.
	SolveBytes int64
	// SolveTime accumulates the simulated α-β makespans of the
	// distributed solves on this Result, in seconds.
	SolveTime float64

	// mu guards the solve accounting above across concurrent solves.
	mu sync.Mutex

	// sess is the session the factorization ran on; nil marks a
	// hand-assembled Result, for which solves fall back to the local
	// sequential substitution.
	sess *Session
}

// Factorize runs a distributed LU factorization of a (n×n) on a simulated
// machine and returns the gathered factors. The input is not modified.
//
// Deprecated: use New and Session.Factorize, which add context
// cancellation and amortize the machine configuration across jobs.
func Factorize(a *Matrix, opts Options) (*Result, error) {
	if a == nil || a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: Factorize requires a square matrix", ErrShape)
	}
	s, err := opts.session(a.Rows)
	if err != nil {
		return nil, err
	}
	return s.Factorize(context.Background(), a)
}

// Solve factorizes a and solves a·x = b, returning x. It uses COnfLUX
// unless opts selects another algorithm; the triangular solve runs
// distributed on opts.SolveRanks simulated ranks, with opts.RefineSweeps
// rounds of iterative refinement.
//
// Deprecated: use New and Session.Solve.
func Solve(a *Matrix, b []float64, opts Options) ([]float64, error) {
	if a == nil || a.Rows != a.Cols || len(b) != a.Rows {
		return nil, fmt.Errorf("%w: Solve requires square A and len(b) == n", ErrShape)
	}
	s, err := opts.session(a.Rows)
	if err != nil {
		return nil, err
	}
	return s.Solve(context.Background(), a, b)
}

// SolveMany factorizes a and solves a·X = B for every column of B at once
// on the distributed machine, returning X and the factorization Result
// (whose SolveVolume/SolveBytes/SolveTime fields report the metered solve
// phase). With opts.RefineSweeps > 0, each sweep recomputes the residual
// R = B − A·X and re-solves distributed for the correction, stopping early
// once the residual is at rounding level.
//
// Deprecated: use New and Session.SolveMany.
func SolveMany(a, b *Matrix, opts Options) (*Matrix, *Result, error) {
	if a == nil || a.Rows != a.Cols || b == nil || b.Rows != a.Rows {
		return nil, nil, fmt.Errorf("%w: SolveMany requires square A and B with B.Rows == n", ErrShape)
	}
	s, err := opts.session(a.Rows)
	if err != nil {
		return nil, nil, err
	}
	return s.SolveMany(context.Background(), a, b)
}

// SolveFactored solves a·x = b using already-computed factors. Results
// produced by Factorize delegate to the distributed solve (metered into
// r.SolveVolume/SolveBytes/SolveTime); hand-assembled Results fall back to
// a local sequential substitution. Either path reports an ErrSingular-
// wrapped error on a singular factor (zero U diagonal) instead of
// producing Inf/NaN.
func (r *Result) SolveFactored(b []float64) ([]float64, error) {
	return r.SolveFactoredContext(context.Background(), b)
}

// SolveFactoredContext is SolveFactored under a context: cancellation
// aborts an in-flight distributed solve with ErrCanceled.
func (r *Result) SolveFactoredContext(ctx context.Context, b []float64) ([]float64, error) {
	n := len(r.Perm)
	if len(b) != n {
		return nil, fmt.Errorf("%w: rhs length %d != %d", ErrShape, len(b), n)
	}
	if r.LU == nil || r.LU.Phantom() {
		return nil, fmt.Errorf("conflux: factors unavailable (volume-mode run?)")
	}
	if r.sess == nil {
		return r.solveSequential(b)
	}
	bm := mat.FromSlice(n, 1, append([]float64(nil), b...))
	x, err := r.SolveManyFactoredContext(ctx, bm)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = x.At(i, 0)
	}
	return out, nil
}

// SolveManyFactored solves a·X = B (B is n×nrhs) using already-computed
// factors with a background context; see SolveManyFactoredContext.
func (r *Result) SolveManyFactored(b *Matrix) (*Matrix, error) {
	return r.SolveManyFactoredContext(context.Background(), b)
}

// SolveManyFactoredContext solves a·X = B (B is n×nrhs) using already-
// computed factors. For Results produced by Factorize the solve runs
// distributed on the session's solve ranks under the recorded α-β machine;
// the run's volume report replaces r.SolveVolume and its solve-phase bytes
// and makespan accumulate into r.SolveBytes / r.SolveTime. Concurrent
// solves on one Result are safe (the accounting is mutex-guarded);
// cancellation of ctx aborts the simulation with ErrCanceled.
func (r *Result) SolveManyFactoredContext(ctx context.Context, b *Matrix) (*Matrix, error) {
	n := len(r.Perm)
	if b == nil || b.Rows != n || b.Cols < 1 {
		return nil, fmt.Errorf("%w: SolveManyFactored rhs shape mismatch", ErrShape)
	}
	if r.LU == nil || r.LU.Phantom() {
		return nil, fmt.Errorf("conflux: factors unavailable (volume-mode run?)")
	}
	if r.sess == nil {
		x := mat.New(n, b.Cols)
		col := make([]float64, n)
		for j := 0; j < b.Cols; j++ {
			for i := 0; i < n; i++ {
				col[i] = b.At(i, j)
			}
			xj, err := r.solveSequential(col)
			if err != nil {
				return nil, err
			}
			for i := 0; i < n; i++ {
				x.Set(i, j, xj[i])
			}
		}
		return x, nil
	}
	s := r.sess
	pb := mat.PermuteRows(b, r.Perm)
	opt := trisolve.DefaultOptions(n, s.cfg.solveRanks, b.Cols)
	var x *Matrix
	rep, err := s.run(ctx, opt.Grid.Total, true, func(c *smpi.Comm) error {
		var lu, rhs *mat.Matrix
		if c.Rank() == 0 {
			lu, rhs = r.LU, pb
		}
		res, err := trisolve.Run(c, lu, rhs, opt)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			x = res.X
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if x == nil {
		return nil, fmt.Errorf("conflux: no solution gathered at rank 0")
	}
	r.mu.Lock()
	r.SolveVolume = rep
	r.SolveBytes += rep.ByPhase[trisolve.PhaseFwd] + rep.ByPhase[trisolve.PhaseBack]
	r.SolveTime += rep.Time.Makespan
	r.mu.Unlock()
	return x, nil
}

// solveSequential is the local O(n²) substitution used for hand-assembled
// Results (no session to rebuild a simulated world from).
func (r *Result) solveSequential(b []float64) ([]float64, error) {
	n := len(r.Perm)
	x := make([]float64, n)
	for i, p := range r.Perm {
		x[i] = b[p]
	}
	// Forward substitution L·y = Pb (unit diagonal).
	for i := 0; i < n; i++ {
		row := r.LU.Row(i)
		s := x[i]
		for k := 0; k < i; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s
	}
	// Back substitution U·x = y.
	for i := n - 1; i >= 0; i-- {
		row := r.LU.Row(i)
		if row[i] == 0 {
			return nil, fmt.Errorf("%w: zero pivot on row %d", ErrSingular, i)
		}
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// CommVolume replays the algorithm's communication schedule at (n, p) in
// volume mode (no arithmetic, identical byte counts) and returns the report,
// including the simulated α-β time under the default machine (rep.Time).
// Memory defaults to the paper's maximum-replication setting.
//
// Deprecated: use New and Session.CommVolume.
func CommVolume(algo Algorithm, n, p int, memory float64) (*VolumeReport, error) {
	return CommVolumeMachine(algo, n, p, memory, Machine{})
}

// CommVolumeMachine is CommVolume with explicit α-β machine parameters for
// the simulated-time model (the zero Machine selects DefaultMachine).
//
// Deprecated: use New with WithMachine and Session.CommVolume.
func CommVolumeMachine(algo Algorithm, n, p int, memory float64, m Machine) (*VolumeReport, error) {
	s, err := Options{Ranks: p, Memory: memory, Algorithm: algo, Machine: m}.session(n)
	if err != nil {
		return nil, err
	}
	return s.CommVolume(context.Background(), n)
}

// CommVolumeSolve replays a full factorize-plus-solve schedule at dimension
// n in volume mode on one simulated world; see Session.CommVolumeSolve.
//
// Deprecated: use New and Session.CommVolumeSolve.
func CommVolumeSolve(n int, opts Options) (*VolumeReport, error) {
	s, err := opts.session(n)
	if err != nil {
		return nil, err
	}
	return s.CommVolumeSolve(context.Background(), n)
}

// AlgorithmBytes extracts the algorithm-attributed traffic from a report,
// excluding the initial layout scatter and final verification gather.
func AlgorithmBytes(rep *VolumeReport) int64 {
	return rep.AlgorithmBytes(trace.PhaseLayout, trace.PhaseCollect)
}

// FactorizeSPD runs the 2.5D Cholesky factorization (the paper conclusions'
// extension kernel) of a symmetric positive definite matrix on a simulated
// machine, returning the lower factor L with a = L·Lᵀ and the volume report.
// Unlike earlier versions, opts.Machine is now honored for the rep.Time
// simulated-time view (it used to be silently ignored here); the metered
// bytes are machine-independent and unchanged.
//
// Deprecated: use New and Session.FactorizeSPD.
func FactorizeSPD(a *Matrix, opts Options) (*Matrix, *VolumeReport, error) {
	if a == nil || a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("%w: FactorizeSPD requires a square matrix", ErrShape)
	}
	s, err := opts.session(a.Rows)
	if err != nil {
		return nil, nil, err
	}
	return s.FactorizeSPD(context.Background(), a)
}

// FactorizeOutOfCore runs the sequential blocked LU against an explicitly
// metered M-element software cache (two-level memory), factoring a in place
// (unpivoted; intended for diagonally dominant inputs) and returning the
// element traffic — the sequential-machine counterpart of the paper's
// parallel measurements, to be compared with LowerBoundLU(n, 1, m).
func FactorizeOutOfCore(a *Matrix, memElements int) (loads, stores int64, err error) {
	st, err := oocore.FactorizeOOC(a, memElements)
	if err != nil {
		return 0, 0, err
	}
	return st.Loads, st.Stores, nil
}

// LowerBoundLU returns the paper's §6 parallel I/O lower bound for LU
// factorization, in elements per processor: 2N³/(3P√M) + N(N−1)/(2P).
// memory <= 0 selects the paper's maximum-replication setting.
func LowerBoundLU(n, p int, memory float64) float64 {
	return xpart.LUParallelLowerBound(n, p, defaultMem(n, p, memory))
}

// LowerBoundMMM returns the matrix-multiplication bound 2N³/(P√M).
func LowerBoundMMM(n, p int, memory float64) float64 {
	return xpart.MMMSequentialLowerBound(n, defaultMem(n, p, memory)) / float64(p)
}

// LowerBoundCholesky returns the Cholesky bound derived with the same
// machinery (≈ N³/(3P√M)).
func LowerBoundCholesky(n, p int, memory float64) float64 {
	return xpart.CholeskyLowerBound(n, defaultMem(n, p, memory)) / float64(p)
}

func defaultMem(n, p int, memory float64) float64 {
	if memory <= 0 {
		return costmodel.MaxMemoryParams(n, p).M
	}
	return memory
}

// ModelPerRankElements returns the Table 2 cost model for an algorithm, in
// elements per rank. memory <= 0 selects the paper's maximum-replication
// setting M = N²/P^(2/3).
func ModelPerRankElements(algo Algorithm, n, p int, memory float64) float64 {
	if memory <= 0 {
		memory = costmodel.MaxMemoryParams(n, p).M
	}
	return costmodel.PerRankElements(algo, costmodel.Params{N: n, P: p, M: memory})
}
