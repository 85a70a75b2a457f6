package trace

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"
)

// stamped is a message in flight in the stress schedule below: the metered
// byte count plus the sender's injection stamp, exactly what smpi carries.
type stamped struct {
	bytes int64
	st    float64
}

// runStressSchedule executes a fixed deterministic schedule on tl: every
// rank injects `rounds` sends (one per peer offset, mixed timed/untimed
// phases), then matches its inbound messages in fixed order. When concurrent is true each rank runs on its own
// goroutine — deliveries from disjoint rank pairs race on the timeline;
// when false the same per-rank program orders execute single-threaded, as
// the pre-shard global-mutex timeline would have serialized them.
func runStressSchedule(tl *Timeline, p, rounds int, concurrent bool) {
	phases := []string{"panel", "update", "layout"} // layout is untimed
	type key struct{ from, to int }
	ch := map[key]chan stamped{}
	for f := 0; f < p; f++ {
		for t := 0; t < p; t++ {
			ch[key{f, t}] = make(chan stamped, rounds)
		}
	}
	sendPhase := func(r int) {
		for k := 0; k < rounds; k++ {
			to := (r + 1 + k%(p-1)) % p
			ph := phases[k%len(phases)]
			bytes := int64(8 * (1 + (r+k)%7))
			st := tl.RecordSend(r, to, bytes, ph)
			ch[key{r, to}] <- stamped{bytes: bytes, st: st}
		}
	}
	recvPhase := func(r int) {
		for k := 0; k < rounds; k++ {
			// Mirror of the send pattern: in round k every rank targets
			// offset 1 + k%(p-1), so exactly one message arrives per round,
			// from the rank that offset maps back to. Matching in k order
			// fixes this rank's program order.
			from := (r - 1 - k%(p-1) + 2*p) % p
			m := <-ch[key{from, r}]
			tl.RecordRecv(from, r, m.bytes, phases[k%len(phases)], m.st)
		}
	}
	if !concurrent {
		for r := 0; r < p; r++ {
			sendPhase(r)
		}
		for r := 0; r < p; r++ {
			recvPhase(r)
		}
		return
	}
	var wg sync.WaitGroup
	var barrier sync.WaitGroup
	barrier.Add(p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			sendPhase(rank)
			barrier.Done()
			barrier.Wait() // all sends buffered before anyone matches
			recvPhase(rank)
		}(r)
	}
	wg.Wait()
}

// TestShardedTimelineDeterministicUnderConcurrency pins the tentpole
// guarantee of the shard refactor: with deliveries racing across all rank
// pairs, the merged Events() sequence, the full Report (volume and time,
// bitwise on every float), and the makespan are identical across repeated
// concurrent runs AND identical to the single-threaded execution of the
// same schedule — the pre-shard fixture, since a global-mutex timeline
// serializing a sequential caller records exactly that. Run under -race in
// CI, this also proves the shards race-free.
func TestShardedTimelineDeterministicUnderConcurrency(t *testing.T) {
	const p, rounds, reps = 8, 48, 10
	m := DefaultMachine()

	fixture := NewTimeline(p, m)
	fixture.ExcludeFromTiming("layout")
	runStressSchedule(fixture, p, rounds, false)
	wantEvents := fixture.Events()
	wantReport := fixture.Report()
	if len(wantEvents) == 0 || wantReport.TotalBytes() == 0 {
		t.Fatal("degenerate fixture: schedule produced no traffic")
	}

	for rep := 0; rep < reps; rep++ {
		tl := NewTimeline(p, m)
		tl.ExcludeFromTiming("layout")
		runStressSchedule(tl, p, rounds, true)
		gotEvents := tl.Events()
		if !reflect.DeepEqual(gotEvents, wantEvents) {
			for i := range wantEvents {
				if i >= len(gotEvents) || gotEvents[i] != wantEvents[i] {
					t.Fatalf("rep %d: event %d = %+v, fixture %+v", rep, i, gotEvents[i], wantEvents[i])
				}
			}
			t.Fatalf("rep %d: %d events, fixture %d", rep, len(gotEvents), len(wantEvents))
		}
		got := tl.Report()
		if got.Time.Makespan != wantReport.Time.Makespan {
			t.Fatalf("rep %d: makespan %v (not bit-identical to fixture %v)",
				rep, got.Time.Makespan, wantReport.Time.Makespan)
		}
		if !reflect.DeepEqual(got, wantReport) {
			t.Fatalf("rep %d: report diverged from fixture:\n got %+v\nwant %+v", rep, got, wantReport)
		}
	}
}

// TestShardSizeCacheAligned pins the padding arithmetic: the shard struct
// must stay a multiple of the 64-byte cache line so adjacent shards in the
// timeline's backing array never false-share. If a field is added, resize
// the trailing pad.
func TestShardSizeCacheAligned(t *testing.T) {
	if sz := unsafe.Sizeof(shard{}); sz%64 != 0 {
		t.Fatalf("shard is %d bytes, not a cache-line multiple; adjust the pad", sz)
	}
}

// TestEventsPreallocationBounded: the Events() preallocation must follow
// retained events, not the raw delivery count — a capped paper-scale run
// meters tens of millions of deliveries against a 2²⁰ retention cap.
func TestEventsPreallocationBounded(t *testing.T) {
	tl := NewTimeline(2, Machine{})
	tl.SetEventCap(4)
	for i := 0; i < 100; i++ {
		st := tl.RecordSend(0, 1, 1, "p")
		tl.RecordRecv(0, 1, 1, "p", st)
	}
	ev := tl.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, cap 4", len(ev))
	}
	if cap(ev) > 8 {
		t.Fatalf("Events() preallocated %d slots for 4 retained events", cap(ev))
	}
}

// TestShardedEndpointIsolation pins the shard layout promise: a delivery
// between ranks 1 and 2 must leave every other rank's shard untouched — no
// clock movement, no volume, no events — which is what makes disjoint
// deliveries contention-free.
func TestShardedEndpointIsolation(t *testing.T) {
	tl := NewTimeline(4, Machine{Alpha: 1, Beta: 0.5})
	st := tl.RecordSend(1, 2, 10, "p")
	tl.RecordRecv(1, 2, 10, "p", st)
	r := tl.Report()
	for _, other := range []int{0, 3} {
		if r.Sent[other] != 0 || r.Recv[other] != 0 || r.Msgs[other] != 0 ||
			r.Time.Clock[other] != 0 || r.Time.Busy[other] != 0 || r.Time.Wait[other] != 0 {
			t.Fatalf("rank %d shard touched by a 1→2 delivery: %+v", other, r)
		}
	}
	if r.Sent[1] != 10 || r.Recv[2] != 10 {
		t.Fatalf("endpoint aggregates wrong: %+v", r)
	}
}
