package smpi

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/trace"
)

// executorName is the report stamp of the one run executor: one goroutine
// per rank, parked on its mailbox condvar while a receive blocks. Reports
// carry it (trace.Report.Executor) as provenance.
const executorName = "goroutines"

// ErrCanceled is the sentinel wrapped by every run that was interrupted by
// its context (cancellation or deadline). Callers test for it with
// errors.Is; the returned error additionally wraps the context's cause, so
// errors.Is(err, context.Canceled) / context.DeadlineExceeded also work.
var ErrCanceled = errors.New("smpi: run canceled")

// RankFunc is the body executed by every rank of a simulated run.
type RankFunc func(c *Comm) error

// Config describes one simulated run for Exec. The zero value is not
// runnable (P must be positive unless World is set); every other field has
// a useful zero: volume mode, default α-β machine, no deadline.
type Config struct {
	// P is the world size. Ignored when World is set.
	P int
	// Payload selects numeric mode (true) or volume mode (false, the
	// default). Ignored when World is set.
	Payload bool
	// Machine sets the α-β machine parameters for the timeline. The zero
	// Machine means "use trace.DefaultMachine()" unless MachineSet is
	// true, because the all-free machine (α = β = 0) is a meaningful
	// configuration, not merely unset. Ignored when World is set.
	Machine trace.Machine
	// MachineSet marks Machine as authoritative even when zero.
	MachineSet bool
	// Topology, when non-nil, replaces the flat Machine cost with a
	// per-pair topology model (internal/topo) on the run's timeline. It
	// applies to caller-supplied Worlds too — the one Config field World
	// does not override — so fault-scenario worlds compose with it.
	Topology trace.Topology
	// Timeout, when positive, bounds the run's wall-clock time: the
	// deadline aborts the world (schedule deadlocks fail instead of
	// hanging) and surfaces as ErrCanceled wrapping
	// context.DeadlineExceeded.
	Timeout time.Duration
	// World, when non-nil, is the caller-configured world to run on
	// (fault injection, post-run mailbox inspection); it overrides P,
	// Payload, Machine, and MachineSet.
	World *World
}

// Exec is the single entrypoint of the runtime: it executes fn on every
// rank of the configured world, one goroutine per rank, and returns the
// run's trace report (volume + simulated time, stamped "goroutines").
//
// Error contract: the first rank error — or panic, converted — wins, with
// secondary ErrAborted unwinds filtered out. When ctx is canceled (or the
// Timeout fires) the world is aborted, blocked ranks unwind promptly, and
// the returned error wraps ErrCanceled plus the context's cause; a run that
// completes before cancellation lands is returned as a success. A partial
// report is returned alongside every error. After the ranks unwind —
// normally or not — undelivered pooled wire buffers and emptied queue
// carcasses are returned to their pools, so aborted runs leak nothing.
func Exec(ctx context.Context, cfg Config, fn RankFunc) (*trace.Report, error) {
	w := cfg.World
	if w == nil {
		m := cfg.Machine
		if m.IsZero() && !cfg.MachineSet {
			m = trace.DefaultMachine()
		}
		w = NewWorldMachine(cfg.P, cfg.Payload, m)
	}
	if cfg.Topology != nil {
		w.Trace.SetTopology(cfg.Topology)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, cfg.Timeout,
			fmt.Errorf("smpi: run did not complete within %v (likely schedule deadlock)", cfg.Timeout))
		defer cancel()
	}
	if ctx.Err() != nil {
		return nil, canceledErr(ctx)
	}
	// A cancelable run aborts the world when the context fires. Runs on a
	// non-cancelable context register nothing, keeping the Go runtime's
	// all-goroutines-asleep deadlock detector meaningful for them.
	stop := context.AfterFunc(ctx, w.Abort)
	errs := runRanks(w, fn)
	stop()
	w.reclaim()
	rep := w.Trace.Report()
	rep.Executor = executorName
	runErr := firstRunError(errs)
	if runErr != nil && ctx.Err() != nil {
		// The abort unwound the ranks (surfacing as ErrAborted or as
		// engine errors on half-delivered schedules); the context is the
		// root cause, so it wins.
		return rep, canceledErr(ctx)
	}
	return rep, runErr
}

func canceledErr(ctx context.Context) error {
	cause := context.Cause(ctx)
	if err := ctx.Err(); !errors.Is(cause, err) {
		// A custom cause (e.g. a timeout explanation) replaces ctx.Err()
		// in the chain; keep both so errors.Is works against either.
		return fmt.Errorf("%w: %w (%w)", ErrCanceled, cause, err)
	}
	return fmt.Errorf("%w: %w", ErrCanceled, cause)
}

// runRanks runs one goroutine per rank, with rank panics converted to
// errors and the first failure aborting the world so blocked ranks unwind
// instead of deadlocking.
func runRanks(w *World, fn RankFunc) []error {
	errs := make([]error, w.P)
	var wg sync.WaitGroup
	for r := 0; r < w.P; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					if err, ok := rec.(error); ok && errors.Is(err, ErrAborted) {
						errs[rank] = ErrAborted
					} else {
						errs[rank] = fmt.Errorf("smpi: rank %d panicked: %v\n%s", rank, rec, debug.Stack())
					}
					w.Abort()
					return
				}
				if errs[rank] != nil {
					w.Abort()
				}
			}()
			errs[rank] = fn(WorldComm(w, rank))
		}(r)
	}
	wg.Wait()
	return errs
}

// firstRunError picks the run's error: the first non-ErrAborted rank error
// (the originating failure) wins; a run where every failure is a secondary
// ErrAborted unwind reports that.
func firstRunError(errs []error) error {
	for _, err := range errs {
		if err != nil && !errors.Is(err, ErrAborted) {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// reclaim sweeps the world after every rank has unwound: undelivered pooled
// payloads (SendMat wire buffers, MaxLoc reduction pairs stranded by an
// abort) go back to their pools, drained queue carcasses and the mailbox
// free-slot caches are recycled. Counts land in w.reclaimed for the
// regression tests. The mailbox locks are held against a late
// cancellation Abort broadcast.
func (w *World) reclaim() {
	for _, mb := range w.boxes {
		mb.mu.Lock()
		for k, q := range mb.q {
			for i := q.head; i < len(q.buf); i++ {
				m := &q.buf[i]
				if m.pooled {
					putFloats(m.F)
					putInts1(m.I)
					w.reclaimed.bufs++
				}
				*m = Msg{}
			}
			delete(mb.q, k)
			q.buf = q.buf[:0]
			q.head = 0
			queuePool.Put(q)
			w.reclaimed.queues++
		}
		if mb.free != nil {
			queuePool.Put(mb.free)
			mb.free = nil
		}
		mb.mu.Unlock()
	}
	dropWindowRegistry(w)
}
