package smpi

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestRunContextCancelInterruptsBlockedRanks proves cancellation is prompt:
// ranks locked in an endless ping-pong (a run that never completes on its
// own) unwind as soon as the context fires.
func TestRunContextCancelInterruptsBlockedRanks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Exec(ctx, Config{P: 2}, func(c *Comm) error {
		peer := 1 - c.Rank()
		for {
			if c.Rank() == 0 {
				c.Send(peer, 1, Msg{N: 1})
				c.Recv(peer, 1)
			} else {
				c.Recv(peer, 1)
				c.Send(peer, 1, Msg{N: 1})
			}
		}
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v must also wrap context.Canceled", err)
	}
	if since := time.Since(start); since > 5*time.Second {
		t.Fatalf("cancellation took %v — not prompt", since)
	}
}

// TestRunContextPreCanceled: a context already done never starts the run.
func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, err := Exec(ctx, Config{P: 2}, func(c *Comm) error {
		ran = true
		return nil
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if ran {
		t.Fatal("rank function ran under a canceled context")
	}
}

// TestRunContextCompletedRunWins: a run that finishes is a success even if
// the context is canceled immediately afterwards.
func TestRunContextCompletedRunWins(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep, err := Exec(ctx, Config{P: 2}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, Msg{N: 8})
		} else {
			c.Recv(0, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalBytes() != 8*trace.BytesPerElement {
		t.Fatalf("bytes = %d", rep.TotalBytes())
	}
}

// TestRunTimeoutDeadlineSurfacesAsCanceled: a run's Timeout aborts the
// world (no leaked goroutines) and reports through the same sentinel.
func TestRunTimeoutDeadlineSurfacesAsCanceled(t *testing.T) {
	_, err := Exec(context.Background(), Config{P: 2, Timeout: 20 * time.Millisecond}, func(c *Comm) error {
		c.Recv(1-c.Rank(), 1) // both ranks wait forever: schedule deadlock
		return nil
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v must also wrap DeadlineExceeded", err)
	}
}
