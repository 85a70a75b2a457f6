package plan

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	conflux "repro"
)

func volumeReq(t *testing.T, n, p int) Request {
	t.Helper()
	// In a Request the zero machine IS the all-free machine (there is no
	// "unset"); the paper-default α-β is spelled explicitly, as the HTTP
	// layer does for absent parameters.
	m := conflux.DefaultMachine()
	req, err := Request{Algorithm: conflux.COnfLUX, N: n, P: p, Alpha: m.Alpha, Beta: m.Beta}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// gatedRunner blocks every computation until release is closed, counting
// invocations.
type gatedRunner struct {
	mu      sync.Mutex
	calls   int
	release chan struct{}
}

func (g *gatedRunner) run(ctx context.Context, req Request) (*Exact, error) {
	g.mu.Lock()
	g.calls++
	g.mu.Unlock()
	select {
	case <-g.release:
		return &Exact{TotalBytes: int64(req.N)}, nil
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

func (g *gatedRunner) count() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calls
}

// TestEvaluateSingleflight: concurrent identical requests coalesce onto
// one simulation, and every caller gets its result.
func TestEvaluateSingleflight(t *testing.T) {
	g := &gatedRunner{release: make(chan struct{})}
	p := NewPlanner(t.Context(), Options{MaxInFlight: 4, Runner: g.run})
	req := volumeReq(t, 64, 4)
	const clients = 50
	var wg sync.WaitGroup
	results := make([]*Exact, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = p.Evaluate(context.Background(), req, 5*time.Second)
		}(i)
	}
	// Let the clients pile onto the in-flight entry, then release it.
	time.Sleep(20 * time.Millisecond)
	close(g.release)
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if results[i] == nil || results[i].TotalBytes != 64 {
			t.Fatalf("client %d: result %+v", i, results[i])
		}
	}
	if g.count() != 1 {
		t.Fatalf("%d simulations ran for %d identical requests, want 1", g.count(), clients)
	}
	if st := p.Stats(); st.Simulations != 1 || st.Cache.Misses != 1 {
		t.Fatalf("stats %+v: want 1 simulation, 1 miss", st)
	}
}

// TestEvaluateFastTier: wait=0 returns OutcomePending immediately while
// the computation proceeds detached; once it lands, the same request is a
// cache hit.
func TestEvaluateFastTier(t *testing.T) {
	g := &gatedRunner{release: make(chan struct{})}
	p := NewPlanner(t.Context(), Options{MaxInFlight: 1, Runner: g.run})
	req := volumeReq(t, 96, 4)
	val, out, err := p.Evaluate(context.Background(), req, 0)
	if err != nil || out != OutcomePending || val != nil {
		t.Fatalf("first call: val=%v out=%q err=%v, want pending", val, out, err)
	}
	close(g.release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		val, out, err = p.Evaluate(context.Background(), req, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if out == OutcomeHit {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no cache hit after background completion (out=%q)", out)
		}
		time.Sleep(time.Millisecond)
	}
	if val.TotalBytes != 96 {
		t.Fatalf("cached value %+v", val)
	}
	if g.count() != 1 {
		t.Fatalf("%d simulations, want 1", g.count())
	}
}

// waitInFlight blocks until n detached computations hold simulation slots
// — the occupier's slot acquisition is asynchronous to its Evaluate call.
func waitInFlight(t *testing.T, p *Planner, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().InFlight < n {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight count never reached %d (stats %+v)", n, p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// waitDrained blocks until no simulation holds a pool slot — the release
// happens after the result is published, so a completed Evaluate does not
// imply a free slot yet.
func waitDrained(t *testing.T, p *Planner) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().InFlight > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pool never drained (stats %+v)", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShedOverloaded: with the pool saturated and no queue, a distinct
// request is shed immediately with the typed ErrOverloaded.
func TestShedOverloaded(t *testing.T) {
	g := &gatedRunner{release: make(chan struct{})}
	p := NewPlanner(t.Context(), Options{MaxInFlight: 1, MaxQueue: -1, Runner: g.run})
	if _, out, err := p.Evaluate(context.Background(), volumeReq(t, 64, 4), 0); err != nil || out != OutcomePending {
		t.Fatalf("occupier: out=%q err=%v", out, err)
	}
	waitInFlight(t, p, 1)
	_, _, err := p.Evaluate(context.Background(), volumeReq(t, 65, 4), time.Second)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if st := p.Stats(); st.ShedQueueFull == 0 {
		t.Fatalf("stats %+v: shed not recorded", st)
	}
	close(g.release)
}

// TestShedQueueTimeout: a queued request that never gets a slot sheds with
// the typed ErrQueueTimeout after the queue timeout.
func TestShedQueueTimeout(t *testing.T) {
	g := &gatedRunner{release: make(chan struct{})}
	p := NewPlanner(t.Context(), Options{
		MaxInFlight: 1, MaxQueue: 8, QueueTimeout: 30 * time.Millisecond, Runner: g.run,
	})
	if _, _, err := p.Evaluate(context.Background(), volumeReq(t, 64, 4), 0); err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, p, 1)
	_, _, err := p.Evaluate(context.Background(), volumeReq(t, 66, 4), 5*time.Second)
	if !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("err = %v, want ErrQueueTimeout", err)
	}
	if st := p.Stats(); st.ShedQueueTimeout == 0 {
		t.Fatalf("stats %+v: shed not recorded", st)
	}
	close(g.release)
}

// TestShedRetriesAfterRecovery: shedding is not sticky — once the pool
// frees up, the same request computes normally.
func TestShedRetriesAfterRecovery(t *testing.T) {
	g := &gatedRunner{release: make(chan struct{})}
	p := NewPlanner(t.Context(), Options{MaxInFlight: 1, MaxQueue: -1, Runner: g.run})
	occupier := volumeReq(t, 64, 4)
	victim := volumeReq(t, 65, 4)
	p.Evaluate(context.Background(), occupier, 0)
	waitInFlight(t, p, 1)
	if _, _, err := p.Evaluate(context.Background(), victim, time.Second); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	close(g.release)
	waitDrained(t, p) // the occupier's slot must actually free
	val, _, err := p.Evaluate(context.Background(), victim, 5*time.Second)
	if err != nil || val == nil || val.TotalBytes != 65 {
		t.Fatalf("post-recovery: val=%+v err=%v", val, err)
	}
}

// TestNoGoroutineLeakAfterBurst: a burst of coalesced and shed requests
// leaves no goroutines behind once computations drain.
func TestNoGoroutineLeakAfterBurst(t *testing.T) {
	before := runtime.NumGoroutine()
	g := &gatedRunner{release: make(chan struct{})}
	p := NewPlanner(t.Context(), Options{MaxInFlight: 2, MaxQueue: 4, QueueTimeout: 20 * time.Millisecond, Runner: g.run})
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p.Evaluate(context.Background(), volumeReq(t, 32+i%8, 4), 50*time.Millisecond)
		}(i)
	}
	wg.Wait()
	close(g.release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before burst, %d after drain", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExactMatchesUncachedSession is the acceptance pin: the planner's
// cached exact tier is byte-identical to an uncached Session run — and
// identical whichever kernel width or timeout that uncached run uses,
// which is precisely why those fields are excluded from the key.
func TestExactMatchesUncachedSession(t *testing.T) {
	pl := NewPlanner(t.Context(), Options{MaxInFlight: 2})
	req := volumeReq(t, 96, 8)
	got, out, err := pl.Evaluate(context.Background(), req, 30*time.Second)
	if err != nil || got == nil {
		t.Fatalf("evaluate: out=%q err=%v", out, err)
	}
	// Second request must be a pure cache hit with the same value.
	again, out2, err := pl.Evaluate(context.Background(), req, 30*time.Second)
	if err != nil || out2 != OutcomeHit || *again != *got {
		t.Fatalf("re-evaluate: out=%q err=%v same=%v", out2, err, again != nil && *again == *got)
	}
	for _, opts := range [][]conflux.Option{
		{conflux.WithRanks(8)},
		{conflux.WithRanks(8), conflux.WithKernelWorkers(4)},
		{conflux.WithRanks(8), conflux.WithTimeout(time.Minute)},
	} {
		s, err := conflux.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.CommVolume(context.Background(), 96)
		if err != nil {
			t.Fatal(err)
		}
		if got.TotalBytes != rep.TotalBytes() ||
			got.AlgorithmBytes != conflux.AlgorithmBytes(rep) ||
			got.Msgs != rep.TotalMsgs() ||
			got.Makespan != rep.Time.Makespan ||
			got.CritBusy != rep.Time.CritBusy() {
			t.Fatalf("cached exact %+v != uncached session report (bytes=%d algo=%d msgs=%d makespan=%v)",
				got, rep.TotalBytes(), conflux.AlgorithmBytes(rep), rep.TotalMsgs(), rep.Time.Makespan)
		}
	}
}

// TestKeyMissesRunDistinctSimulations: requests differing only in machine
// β (or nb, or memory) must not share cache entries.
func TestKeyMissesRunDistinctSimulations(t *testing.T) {
	pl := NewPlanner(t.Context(), Options{MaxInFlight: 2})
	base := volumeReq(t, 64, 4)
	variant := base
	variant.Beta *= 2
	variant, err := variant.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := pl.Evaluate(context.Background(), base, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := pl.Evaluate(context.Background(), variant, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Stats().Simulations != 2 {
		t.Fatalf("simulations = %d, want 2 (β difference must miss)", pl.Stats().Simulations)
	}
	if b.TotalBytes != v.TotalBytes {
		t.Fatalf("volume is machine-independent, got %d vs %d", b.TotalBytes, v.TotalBytes)
	}
	if b.Makespan == v.Makespan {
		t.Fatal("doubling β left the makespan unchanged — wrong machine simulated")
	}
}

// TestModelForCoversTable2: the instant tier exists exactly for the
// paper's comparison set and is strictly positive.
func TestModelForCoversTable2(t *testing.T) {
	req := volumeReq(t, 4096, 64)
	for _, a := range []conflux.Algorithm{conflux.COnfLUX, conflux.CANDMC, conflux.LibSci, conflux.SLATE} {
		r := req
		r.Algorithm = a
		m, ok := ModelFor(r)
		if !ok {
			t.Fatalf("%s: no model tier", a)
		}
		if m.PerRankBytes <= 0 || m.TotalBytes <= 0 || m.ApproxMsgs <= 0 || m.PredictedSeconds <= 0 {
			t.Fatalf("%s: degenerate model %+v", a, m)
		}
	}
	r := req
	r.Algorithm = conflux.Cholesky
	if _, ok := ModelFor(r); ok {
		t.Fatal("Cholesky has no Table 2 model; ModelFor must report false")
	}
}
