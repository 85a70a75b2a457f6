package smpi

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/mat"
)

// TestMailboxSteadyStateMapSize is the regression test for the mailbox
// memory-growth bug: per-key queue entries must be reclaimed when drained,
// so a long-lived world (one session running many solves) holds map entries
// only for in-flight traffic, never for its whole tag history. Every round
// uses fresh tags — without drained-key deletion the maps would grow by
// 2·rounds entries; with it they stay at zero between rounds and end empty.
func TestMailboxSteadyStateMapSize(t *testing.T) {
	const p, rounds = 4, 2000
	w := NewWorld(p, false)
	_, err := Exec(context.Background(), Config{World: w}, func(c *Comm) error {
		me := c.Rank()
		next, prev := (me+1)%p, (me-1+p)%p
		for r := 0; r < rounds; r++ {
			c.Send(next, r, Msg{N: 8}) // tag r: a fresh key every round
			c.Recv(prev, r)
			if r%100 == 0 {
				// The rank owns its mailbox; between matched rounds only
				// not-yet-taken deliveries may occupy the map. With p-1
				// possible senders that bounds the size at p-1, tag
				// history must contribute nothing.
				mb := w.boxes[c.WorldRank()]
				mb.mu.Lock()
				size := len(mb.q)
				mb.mu.Unlock()
				if size >= p {
					return fmt.Errorf("rank %d: mailbox map holds %d keys at round %d (leak)", me, size, r)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, mb := range w.boxes {
		mb.mu.Lock()
		size := len(mb.q)
		mb.mu.Unlock()
		if size != 0 {
			t.Fatalf("rank %d: %d undrained mailbox keys after the run", r, size)
		}
	}
}

// TestMailboxAbortReclaimsWaiterQueue: a receiver parked on a key it
// created (receive-before-send) must not strand that empty queue in the map
// when the world aborts.
func TestMailboxAbortReclaimsWaiterQueue(t *testing.T) {
	w := NewWorld(2, false)
	_, err := Exec(context.Background(), Config{World: w}, func(c *Comm) error {
		if c.Rank() == 0 {
			return fmt.Errorf("rank 0 fails") // aborts the world
		}
		c.Recv(0, 7) // blocks forever; unwinds via ErrAborted
		return nil
	})
	if err == nil {
		t.Fatal("expected the injected failure")
	}
	mb := w.boxes[1]
	mb.mu.Lock()
	size := len(mb.q)
	mb.mu.Unlock()
	if size != 0 {
		t.Fatalf("aborted waiter left %d keys in its mailbox map", size)
	}
}

// TestSendMatRecvMatPooledRoundTrip pins that buffer pooling does not leak
// payload aliasing: the receiver's matrix must hold a private copy, and
// mutating either side after the exchange must not affect the other even
// though the wire buffer is recycled into the next send.
func TestSendMatRecvMatPooledRoundTrip(t *testing.T) {
	run(t, 2, true, func(c *Comm) error {
		if c.Rank() == 0 {
			a := mat.New(3, 3)
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					a.Set(i, j, float64(10*i+j))
				}
			}
			c.SendMat(1, 1, a)
			b := mat.New(2, 2)
			b.Set(0, 0, 42)
			c.SendMat(1, 2, b) // likely reuses the recycled wire buffer
		} else {
			got := mat.New(3, 3)
			c.RecvMat(0, 1, got)
			snapshot := got.Clone()
			got2 := mat.New(2, 2)
			c.RecvMat(0, 2, got2)
			if d := mat.MaxAbsDiff(got, snapshot); d != 0 {
				return fmt.Errorf("first receive mutated by second exchange (pool aliasing): diff %v", d)
			}
			if got.At(2, 1) != 21 || got2.At(0, 0) != 42 {
				return fmt.Errorf("payload corrupted: %v / %v", got.At(2, 1), got2.At(0, 0))
			}
		}
		return nil
	})
}

// TestPhantomSendAllocatesNothing pins the zero-allocation phantom fast
// path: in steady state (pools warm), a phantom SendMat/RecvMat pair on a
// pre-built world performs no heap allocation.
func TestPhantomSendAllocatesNothing(t *testing.T) {
	w := NewWorld(2, false)
	done := make(chan struct{})
	req := make(chan int)
	go func() {
		c := WorldComm(w, 1)
		m := mat.NewPhantom(16, 16)
		for tag := range req {
			c.RecvMat(0, tag, m)
		}
		close(done)
	}()
	c := WorldComm(w, 0)
	m := mat.NewPhantom(16, 16)
	exchange := func(tag int) {
		req <- tag
		c.SendMat(1, tag, m)
	}
	exchange(0) // warm up: queue pool, map entry churn
	const reps = 100
	avg := testing.AllocsPerRun(reps, func() { exchange(1) })
	close(req)
	<-done
	// The metering path may touch a map bucket now and then; allow a small
	// fraction but fail on per-message allocation.
	if avg >= 1 {
		t.Fatalf("phantom exchange allocates %.2f objects/op, want ~0", avg)
	}
}
