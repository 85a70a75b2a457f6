package smpi

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/topo"
	"repro/internal/trace"
)

// denseWorkload is a communication-dense rank body exercising point-to-
// point, butterfly collectives, barriers, and a MaxLoc reduction — the
// full matching surface repeated runs must agree on.
func denseWorkload(c *Comm) error {
	p, me := c.Size(), c.Rank()
	c.SetPhase("ring")
	for round := 0; round < 5; round++ {
		c.Send((me+1)%p, round, Msg{N: 64 * (me + round + 1)})
		c.Recv((me-1+p)%p, round)
	}
	c.SetPhase("reduce")
	got := c.AllreduceMaxLoc(MaxLoc{Val: float64((me * 7) % p), Loc: me})
	if got.Loc < 0 || got.Loc >= p {
		return fmt.Errorf("bad maxloc %v", got)
	}
	c.Barrier()
	c.SetPhase("shift")
	// Pairwise exchange under the reversal pairing (an involution for every
	// p; the middle rank of an odd world sits out), with receive-before-
	// send ordering on half the ranks so receivers have to park and be
	// woken.
	peer := p - 1 - me
	if peer != me {
		if me < peer {
			c.Send(peer, 100, Msg{N: 256})
			c.Recv(peer, 101)
		} else {
			c.Recv(peer, 100)
			c.Send(peer, 101, Msg{N: 256})
		}
	}
	c.Barrier()
	return nil
}

// reportsEqual compares everything except the provenance stamp.
func reportsEqual(a, b *trace.Report) error {
	if !reflect.DeepEqual(a.Sent, b.Sent) || !reflect.DeepEqual(a.Recv, b.Recv) || !reflect.DeepEqual(a.Msgs, b.Msgs) {
		return fmt.Errorf("per-rank volume differs:\n%v %v %v\n%v %v %v", a.Sent, a.Recv, a.Msgs, b.Sent, b.Recv, b.Msgs)
	}
	if !reflect.DeepEqual(a.ByPhase, b.ByPhase) || !reflect.DeepEqual(a.PhaseMsgs, b.PhaseMsgs) {
		return fmt.Errorf("phase attribution differs: %v vs %v", a.ByPhase, b.ByPhase)
	}
	if !reflect.DeepEqual(a.Time, b.Time) {
		return fmt.Errorf("simulated time differs: makespan %v vs %v (clocks %v vs %v)",
			a.Time.Makespan, b.Time.Makespan, a.Time.Clock, b.Time.Clock)
	}
	return nil
}

// TestAbortReclaimsPooledWireBuffers is the pool-reclaim regression test:
// when a run aborts with pooled wire buffers still undelivered (numeric
// SendMat traffic nobody received), the post-run sweep must return them and
// their queue carcasses to the pools.
func TestAbortReclaimsPooledWireBuffers(t *testing.T) {
	w := NewWorld(3, true)
	_, err := Exec(context.Background(), Config{World: w}, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			m := mat.New(4, 4)
			c.SendMat(2, 1, m) // never received: tag 1 ≠ awaited tag 9
			c.SendMat(2, 2, m)
			return nil
		case 1:
			return fmt.Errorf("injected failure")
		default:
			c.Recv(1, 9) // blocks until the abort unwinds it
			return nil
		}
	})
	if err == nil || errors.Is(err, ErrAborted) {
		t.Fatalf("want the injected failure, got %v", err)
	}
	if w.reclaimed.bufs != 2 {
		t.Fatalf("reclaimed %d pooled buffers, want 2", w.reclaimed.bufs)
	}
	if w.reclaimed.queues == 0 {
		t.Fatal("no queue carcasses reclaimed")
	}
	requireEmptyMailboxes(t, w)
}

// TestCancelReclaimsPools covers the cancellation path: a canceled run
// must unwind blocked ranks promptly and sweep the stranded pooled
// payloads.
func TestCancelReclaimsPools(t *testing.T) {
	w := NewWorld(2, true)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := Exec(ctx, Config{World: w}, func(c *Comm) error {
		if c.Rank() == 0 {
			m := mat.New(3, 3)
			c.SendMat(1, 99, m) // never received
			cancel()
		}
		c.Recv(1-c.Rank(), 7) // both ranks block until the abort
		return nil
	})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if w.reclaimed.bufs != 1 {
		t.Fatalf("reclaimed %d pooled buffers, want 1", w.reclaimed.bufs)
	}
	requireEmptyMailboxes(t, w)
}

// requireEmptyMailboxes asserts the post-run sweep left no key behind.
func requireEmptyMailboxes(t *testing.T, w *World) {
	t.Helper()
	for r, mb := range w.boxes {
		if len(mb.q) != 0 {
			t.Fatalf("rank %d mailbox still holds %d keys after reclaim", r, len(mb.q))
		}
	}
}

// strandSenders is the many-senders abort body: ranks 1..P-1 each ship a
// pooled payload to rank 0 on a tag it never receives and then block, while
// rank 0 fails the world. Every one of the P-1 stranded buffers must come
// back through the post-run sweep regardless of where in its send/block
// lifecycle each sender was when the abort landed.
func strandSenders(c *Comm) error {
	if c.Rank() == 0 {
		return fmt.Errorf("injected failure")
	}
	m := mat.New(4, 4)
	c.SendMat(0, 5, m) // tag 5 is never received
	c.Recv(0, 99)      // blocks until the abort unwinds it
	return nil
}

// TestAbortMidConcurrentWindow interrupts a world with pooled wire buffers
// in flight from many concurrently running senders (strandSenders).
func TestAbortMidConcurrentWindow(t *testing.T) {
	const p = 8
	w := NewWorld(p, true)
	_, err := Exec(context.Background(), Config{World: w}, strandSenders)
	if err == nil || errors.Is(err, ErrAborted) {
		t.Fatalf("want the injected failure, got %v", err)
	}
	if w.reclaimed.bufs != p-1 {
		t.Fatalf("reclaimed %d pooled buffers, want %d", w.reclaimed.bufs, p-1)
	}
	requireEmptyMailboxes(t, w)
}

// TestAbortFaultedTopologyReclaims is TestAbortMidConcurrentWindow on a
// degraded network: the world's timeline runs under a faulted topology
// (hier preset + degraded ingress link + a straggler rank). Fault
// scenarios must compose with cancellation — the abort sweep owes the
// pools the same P-1 stranded wire buffers whatever the topology charged
// the clocks.
func TestAbortFaultedTopologyReclaims(t *testing.T) {
	const p = 8
	spec, err := topo.PresetSpec("hier-contended")
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topo.BuildFaulted(spec, trace.DefaultMachine(), p, topo.FaultPlan{
		Links:      []topo.LinkFault{{FromNode: -1, ToNode: 0, Factor: 16}},
		Stragglers: []topo.Straggler{{Rank: 3, Factor: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(p, true)
	_, err = Exec(context.Background(), Config{World: w, Topology: tp}, strandSenders)
	if err == nil || errors.Is(err, ErrAborted) {
		t.Fatalf("want the injected failure, got %v", err)
	}
	if w.reclaimed.bufs != p-1 {
		t.Fatalf("reclaimed %d pooled buffers, want %d", w.reclaimed.bufs, p-1)
	}
	requireEmptyMailboxes(t, w)
	if got := w.Trace.Report().Time.Topology; got != "hier+contention+faults" {
		t.Fatalf("aborted report lost the topology stamp: %q", got)
	}
}

// TestExecDeterminismStress runs several identical simulations
// concurrently (under -race in CI) and requires bit-identical reports: the
// worlds share the wire-buffer pools, and any cross-world interference or
// scheduling-dependent accounting would show up as a diff or a race report.
func TestExecDeterminismStress(t *testing.T) {
	const trials, p = 4, 7
	reps := make([]*trace.Report, trials)
	errs := make([]error, trials)
	var wg sync.WaitGroup
	for i := 0; i < trials; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = Exec(context.Background(), Config{P: p}, denseWorkload)
		}(i)
	}
	wg.Wait()
	for i := 0; i < trials; i++ {
		if errs[i] != nil {
			t.Fatalf("trial %d: %v", i, errs[i])
		}
		if i > 0 {
			if err := reportsEqual(reps[0], reps[i]); err != nil {
				t.Fatalf("trial %d diverged: %v", i, err)
			}
		}
	}
}

// TestExecWorldOverridesScalars pins the Config contract: a caller-built
// World wins over the P/Payload/Machine fields.
func TestExecWorldOverridesScalars(t *testing.T) {
	w := NewWorld(3, false)
	rep, err := Exec(context.Background(), Config{P: 99, Payload: true, World: w}, func(c *Comm) error {
		if c.Size() != 3 || c.Payload() {
			return fmt.Errorf("world not honored: size %d payload %v", c.Size(), c.Payload())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.P != 3 {
		t.Fatalf("report P = %d, want 3", rep.P)
	}
	if rep.Executor != "goroutines" {
		t.Fatalf("report stamped %q, want goroutines", rep.Executor)
	}
}
