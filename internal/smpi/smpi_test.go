package smpi

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/mat"
	"repro/internal/trace"
)

const testTimeout = 30 * time.Second

func run(t *testing.T, p int, payload bool, fn RankFunc) *trace.Report {
	t.Helper()
	rep, err := Exec(context.Background(), Config{P: p, Payload: payload, Timeout: testTimeout}, fn)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSendRecvOrdering(t *testing.T) {
	run(t, 2, true, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 10; i++ {
				c.Send(1, 5, Msg{F: []float64{float64(i)}, N: 1})
			}
		} else {
			for i := 0; i < 10; i++ {
				m := c.Recv(0, 5)
				if m.F[0] != float64(i) {
					return fmt.Errorf("out of order: got %v want %d", m.F[0], i)
				}
			}
		}
		return nil
	})
}

func TestTagIsolation(t *testing.T) {
	run(t, 2, true, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, Msg{F: []float64{1}, N: 1})
			c.Send(1, 2, Msg{F: []float64{2}, N: 1})
		} else {
			// Receive in reverse tag order.
			if m := c.Recv(0, 2); m.F[0] != 2 {
				return errors.New("tag 2 corrupted")
			}
			if m := c.Recv(0, 1); m.F[0] != 1 {
				return errors.New("tag 1 corrupted")
			}
		}
		return nil
	})
}

func TestVolumeCountingP2P(t *testing.T) {
	rep := run(t, 3, true, func(c *Comm) error {
		if c.Rank() == 0 {
			c.SetPhase("a")
			c.SendMat(1, 1, mat.New(4, 5)) // 20 elements
			c.SetPhase("b")
			c.SendInts(2, 2, []int{1, 2, 3}) // 3 elements
		}
		if c.Rank() == 1 {
			c.RecvMat(0, 1, mat.New(4, 5))
		}
		if c.Rank() == 2 {
			c.RecvInts(0, 2)
		}
		return nil
	})
	if got := rep.TotalBytes(); got != 23*8 {
		t.Fatalf("total bytes %d, want %d", got, 23*8)
	}
	if rep.Sent[0] != 23*8 || rep.Recv[1] != 20*8 || rep.Recv[2] != 3*8 {
		t.Fatalf("per-rank wrong: %v %v", rep.Sent, rep.Recv)
	}
	if rep.ByPhase["a"] != 160 || rep.ByPhase["b"] != 24 {
		t.Fatalf("phases wrong: %v", rep.ByPhase)
	}
}

func TestSelfSendNotMetered(t *testing.T) {
	rep := run(t, 1, true, func(c *Comm) error {
		c.SendMat(0, 7, mat.New(10, 10))
		c.RecvMat(0, 7, mat.New(10, 10))
		return nil
	})
	if rep.TotalBytes() != 0 {
		t.Fatalf("self traffic metered: %d", rep.TotalBytes())
	}
}

func TestBcastMatAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
		for root := 0; root < p; root += max(1, p/3) {
			src := mat.Random(3, 3, 42)
			rep := run(t, p, true, func(c *Comm) error {
				m := mat.New(3, 3)
				if c.Rank() == root {
					m.CopyFrom(src)
				}
				c.BcastMat(root, m)
				if d := mat.MaxAbsDiff(m, src); d != 0 {
					return fmt.Errorf("rank %d wrong bcast (diff %v)", c.Rank(), d)
				}
				return nil
			})
			want := int64((p - 1) * 9 * 8)
			if rep.TotalBytes() != want {
				t.Fatalf("p=%d root=%d: volume %d want %d", p, root, rep.TotalBytes(), want)
			}
		}
	}
}

func TestBcastInts(t *testing.T) {
	run(t, 5, true, func(c *Comm) error {
		var ids []int
		if c.Rank() == 2 {
			ids = []int{4, 5, 6}
		}
		ids = c.BcastInts(2, ids)
		if len(ids) != 3 || ids[2] != 6 {
			return fmt.Errorf("rank %d got %v", c.Rank(), ids)
		}
		return nil
	})
}

func TestReduceMatSum(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		for root := 0; root < p; root += max(1, p-1) {
			rep := run(t, p, true, func(c *Comm) error {
				m := mat.New(2, 2)
				m.Set(0, 0, float64(c.Rank()+1))
				c.ReduceMatSum(root, m)
				if c.Rank() == root {
					want := float64(p*(p+1)) / 2
					if m.At(0, 0) != want {
						return fmt.Errorf("sum %v want %v", m.At(0, 0), want)
					}
				}
				return nil
			})
			want := int64((p - 1) * 4 * 8)
			if rep.TotalBytes() != want {
				t.Fatalf("p=%d root=%d: volume %d want %d", p, root, rep.TotalBytes(), want)
			}
		}
	}
}

func TestAllreduceMatSum(t *testing.T) {
	run(t, 6, true, func(c *Comm) error {
		m := mat.New(1, 3)
		m.Set(0, 1, 2)
		c.AllreduceMatSum(m)
		if m.At(0, 1) != 12 {
			return fmt.Errorf("rank %d: %v", c.Rank(), m.At(0, 1))
		}
		return nil
	})
}

func TestAllreduceMaxLoc(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 6, 8, 9} {
		run(t, p, true, func(c *Comm) error {
			in := MaxLoc{Val: float64(c.Rank()), Loc: c.Rank() * 10}
			if c.Rank() == p/2 {
				in.Val = -1000 // largest magnitude, negative
			}
			out := c.AllreduceMaxLoc(in)
			if out.Val != -1000 || out.Loc != (p/2)*10 {
				return fmt.Errorf("p=%d rank %d got %+v", p, c.Rank(), out)
			}
			return nil
		})
	}
}

func TestButterflyVolumePow2(t *testing.T) {
	p := 8
	rep := run(t, p, true, func(c *Comm) error {
		c.Butterfly(Msg{F: []float64{1}, N: 1}, func(a, b Msg) Msg {
			return Msg{F: []float64{a.F[0] + b.F[0]}, N: 1}
		})
		return nil
	})
	// log2(8)=3 rounds, every rank sends 1 element per round.
	want := int64(p * 3 * 8)
	if rep.TotalBytes() != want {
		t.Fatalf("volume %d want %d", rep.TotalBytes(), want)
	}
}

func TestButterflySumNonPow2(t *testing.T) {
	for _, p := range []int{3, 5, 6, 7, 12} {
		run(t, p, true, func(c *Comm) error {
			out := c.Butterfly(Msg{F: []float64{1}, N: 1}, func(a, b Msg) Msg {
				return Msg{F: []float64{a.F[0] + b.F[0]}, N: 1}
			})
			if out.F[0] != float64(p) {
				return fmt.Errorf("p=%d rank %d sum %v", p, c.Rank(), out.F[0])
			}
			return nil
		})
	}
}

func TestScatterGather(t *testing.T) {
	p := 4
	run(t, p, true, func(c *Comm) error {
		recv := mat.New(1, 2)
		var parts []*mat.Matrix
		if c.Rank() == 1 {
			parts = make([]*mat.Matrix, p)
			for i := range parts {
				parts[i] = mat.New(1, 2)
				parts[i].Set(0, 0, float64(i))
			}
		}
		c.ScatterMats(1, parts, recv)
		if recv.At(0, 0) != float64(c.Rank()) {
			return fmt.Errorf("scatter wrong on %d: %v", c.Rank(), recv.At(0, 0))
		}
		recv.Set(0, 1, float64(c.Rank()*c.Rank()))
		var dst []*mat.Matrix
		if c.Rank() == 2 {
			dst = make([]*mat.Matrix, p)
			for i := range dst {
				dst[i] = mat.New(1, 2)
			}
		}
		c.GatherMats(2, recv, dst)
		if c.Rank() == 2 {
			for i := 0; i < p; i++ {
				if dst[i].At(0, 1) != float64(i*i) {
					return fmt.Errorf("gather wrong at %d", i)
				}
			}
		}
		return nil
	})
}

func TestAllgather(t *testing.T) {
	p := 5
	rep := run(t, p, true, func(c *Comm) error {
		send := mat.New(1, 1)
		send.Set(0, 0, float64(c.Rank()))
		out := make([]*mat.Matrix, p)
		for i := range out {
			out[i] = mat.New(1, 1)
		}
		c.AllgatherMats(send, out)
		for i := 0; i < p; i++ {
			if out[i].At(0, 0) != float64(i) {
				return fmt.Errorf("rank %d slot %d wrong", c.Rank(), i)
			}
		}
		return nil
	})
	// Ring: every rank sends (p-1) blocks of 1 element.
	want := int64(p * (p - 1) * 8)
	if rep.TotalBytes() != want {
		t.Fatalf("volume %d want %d", rep.TotalBytes(), want)
	}
}

func TestBarrierZeroVolume(t *testing.T) {
	rep := run(t, 7, true, func(c *Comm) error {
		c.Barrier()
		return nil
	})
	if rep.TotalBytes() != 0 {
		t.Fatalf("barrier metered %d bytes", rep.TotalBytes())
	}
}

func TestSubCommunicator(t *testing.T) {
	// 6 ranks → two row communicators {0,1,2} and {3,4,5}.
	run(t, 6, true, func(c *Comm) error {
		row := c.WorldRank() / 3
		members := []int{row * 3, row*3 + 1, row*3 + 2}
		rc := c.Sub(fmt.Sprintf("row%d", row), members)
		if rc.Size() != 3 || rc.WorldRank() != c.WorldRank() {
			return errors.New("bad sub comm")
		}
		m := mat.New(1, 1)
		if rc.Rank() == 0 {
			m.Set(0, 0, float64(row+1))
		}
		rc.BcastMat(0, m)
		if m.At(0, 0) != float64(row+1) {
			return fmt.Errorf("cross-communicator leak: rank %d got %v", c.WorldRank(), m.At(0, 0))
		}
		return nil
	})
}

func TestVolumeModeMatchesNumericVolume(t *testing.T) {
	// The central phantom-mode invariant: byte counts are identical.
	body := func(c *Comm) error {
		m := mat.New(4, 4)
		if !c.Payload() {
			m = mat.NewPhantom(4, 4)
		}
		c.BcastMat(0, m)
		c.ReduceMatSum(1, m)
		if c.Rank() == 0 {
			c.SendMat(2, 3, m.View(0, 0, 2, 2))
		}
		if c.Rank() == 2 {
			buf := mat.New(2, 2)
			if !c.Payload() {
				buf = mat.NewPhantom(2, 2)
			}
			c.RecvMat(0, 3, buf)
		}
		return nil
	}
	repN := run(t, 5, true, body)
	repV := run(t, 5, false, body)
	if repN.TotalBytes() != repV.TotalBytes() {
		t.Fatalf("numeric %d != volume %d", repN.TotalBytes(), repV.TotalBytes())
	}
	for r := 0; r < 5; r++ {
		if repN.Sent[r] != repV.Sent[r] {
			t.Fatalf("rank %d: %d != %d", r, repN.Sent[r], repV.Sent[r])
		}
	}
}

func TestRankErrorPropagates(t *testing.T) {
	_, err := Exec(context.Background(), Config{P: 3, Payload: true, Timeout: testTimeout}, func(c *Comm) error {
		if c.Rank() == 1 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestRankPanicBecomesError(t *testing.T) {
	_, err := Exec(context.Background(), Config{P: 2, Payload: true, Timeout: testTimeout}, func(c *Comm) error {
		if c.Rank() == 0 {
			panic("kaput")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Fatalf("err = %v", err)
	}
}

func TestFailureInjection(t *testing.T) {
	w := NewWorld(4, true)
	var budget int64 = 100 // fail all sends after 100 bytes total
	var sent int64
	w.FailSend = func(from, to int, bytes int64) error {
		if sent += bytes; sent > budget {
			return fmt.Errorf("link %d->%d failed (budget exhausted)", from, to)
		}
		return nil
	}
	_, err := Exec(context.Background(), Config{World: w}, func(c *Comm) error {
		m := mat.New(8, 8)
		c.BcastMat(0, m)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("expected injected failure, got %v", err)
	}
}

func TestDeadlockDetectedByTimeout(t *testing.T) {
	_, err := Exec(context.Background(), Config{P: 2, Payload: true, Timeout: 200 * time.Millisecond}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Recv(1, 1) // never sent
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected timeout error, got %v", err)
	}
}

// TestCollectiveVolumeNonPowerOfTwo pins the collective accounting at the
// awkward communicator sizes the binomial trees must still meter exactly:
// BcastMat, ReduceMatSum, and BcastInts each move exactly (p-1)·len
// elements regardless of how the tree folds.
func TestCollectiveVolumeNonPowerOfTwo(t *testing.T) {
	const elems = 12 // 3x4 matrices and 12-int slices
	for _, p := range []int{3, 5, 6, 7} {
		cases := []struct {
			name string
			body RankFunc
		}{
			{"BcastMat", func(c *Comm) error {
				c.BcastMat(0, mat.New(3, 4))
				return nil
			}},
			{"ReduceMatSum", func(c *Comm) error {
				c.ReduceMatSum(0, mat.New(3, 4))
				return nil
			}},
			{"BcastInts", func(c *Comm) error {
				c.BcastInts(0, make([]int, elems))
				return nil
			}},
		}
		for _, tc := range cases {
			rep := run(t, p, true, tc.body)
			want := int64((p - 1) * elems * 8)
			if got := rep.TotalBytes(); got != want {
				t.Fatalf("%s p=%d: metered %d bytes, want (p-1)·len·8 = %d", tc.name, p, got, want)
			}
		}
	}
}

// TestSimulatedTimeBasics: sends advance the simulated clocks, barriers
// cost latency but no volume, and an idle world has zero makespan.
func TestSimulatedTimeBasics(t *testing.T) {
	rep := run(t, 3, true, func(c *Comm) error {
		c.Barrier()
		return nil
	})
	if rep.TotalBytes() != 0 {
		t.Fatalf("barrier metered %d bytes", rep.TotalBytes())
	}
	if rep.Time.Makespan <= 0 {
		t.Fatal("barrier should cost α latency in simulated time")
	}
	idle := run(t, 3, true, func(c *Comm) error { return nil })
	if idle.Time.Makespan != 0 {
		t.Fatalf("idle world makespan %v", idle.Time.Makespan)
	}
}

// Property: tree-broadcast volume is exactly (p-1)·len·8 for any p, len.
func TestQuickBcastVolume(t *testing.T) {
	f := func(p8, len8 uint8) bool {
		p := int(p8%12) + 1
		n := int(len8%20) + 1
		rep, err := Exec(context.Background(), Config{P: p, Timeout: testTimeout}, func(c *Comm) error {
			c.BcastMat(0, mat.NewPhantom(1, n))
			return nil
		})
		if err != nil {
			return false
		}
		return rep.TotalBytes() == int64((p-1)*n*8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: butterfly sum equals p regardless of size.
func TestQuickButterflySum(t *testing.T) {
	f := func(p8 uint8) bool {
		p := int(p8%16) + 1
		ok := true
		_, err := Exec(context.Background(), Config{P: p, Payload: true, Timeout: testTimeout}, func(c *Comm) error {
			out := c.Butterfly(Msg{F: []float64{1}, N: 1}, func(a, b Msg) Msg {
				return Msg{F: []float64{a.F[0] + b.F[0]}, N: 1}
			})
			if out.F[0] != float64(p) {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
