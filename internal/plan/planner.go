package plan

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	conflux "repro"
	"repro/internal/costmodel"
	"repro/internal/engine"
)

// Typed shedding errors. cmd/confluxd maps them onto HTTP 429/503 with
// Retry-After; programmatic callers branch with errors.Is.
var (
	// ErrOverloaded: the simulation pool is full and the wait queue is at
	// capacity — the request was rejected without queueing at all.
	ErrOverloaded = errors.New("plan: overloaded, simulation queue full")
	// ErrQueueTimeout: the request queued for a simulation slot but none
	// freed up within the queue timeout.
	ErrQueueTimeout = errors.New("plan: timed out waiting for a simulation slot")
)

// Exact is the exact simulation tier: the metered quantities of one run,
// straight off the trace report. It deliberately carries no executor
// provenance — responses must be byte-identical across runs, which is the
// same pin that makes them cacheable.
type Exact struct {
	// TotalBytes is the aggregate bytes sent, housekeeping included.
	TotalBytes int64 `json:"total_bytes"`
	// AlgorithmBytes excludes the layout scatter and collect gather —
	// the paper's headline metric.
	AlgorithmBytes int64 `json:"algorithm_bytes"`
	// PerRankBytes is TotalBytes averaged over ranks (Fig. 6 y-axis).
	PerRankBytes float64 `json:"per_rank_bytes"`
	// MaxRankBytes is the most-loaded rank's sent bytes.
	MaxRankBytes int64 `json:"max_rank_bytes"`
	// Msgs is the aggregate message count.
	Msgs int64 `json:"msgs"`
	// MaxRankMsgs is the latency-critical path: the largest timed-phase
	// message count any rank injects.
	MaxRankMsgs int64 `json:"max_rank_msgs"`
	// Makespan is the simulated α-β makespan in seconds.
	Makespan float64 `json:"makespan_s"`
	// CritBusy is the critical rank's pure transfer time (waits
	// excluded).
	CritBusy float64 `json:"crit_busy_s"`
	// Grid describes the processor grid the engine chose.
	Grid string `json:"grid,omitempty"`
}

// Model is the instant approximate tier: the closed-form Table 2 cost
// model plus the α-β prediction it implies, served while (or instead of)
// the exact simulation running. For JobSolve requests it covers the
// factorization phase only — the paper has no closed-form solve model.
type Model struct {
	PerRankBytes     float64 `json:"per_rank_bytes"`
	TotalBytes       float64 `json:"total_bytes"`
	ApproxMsgs       float64 `json:"approx_msgs"`
	PredictedSeconds float64 `json:"predicted_s"`
}

// ModelFor returns the model tier for a canonicalized request, or false
// for algorithms outside the Table 2 comparison set (Cholesky).
func ModelFor(req Request) (Model, bool) {
	found := false
	for _, a := range costmodel.Algorithms {
		if a == req.Algorithm {
			found = true
			break
		}
	}
	if !found {
		return Model{}, false
	}
	params := costmodel.Params{N: req.N, P: req.P, M: req.Memory}
	machine := conflux.Machine{Alpha: req.Alpha, Beta: req.Beta}
	msgs := costmodel.ApproxPerRankMsgs(req.Algorithm, params, req.NB)
	return Model{
		PerRankBytes:     costmodel.PerRankBytes(req.Algorithm, params),
		TotalBytes:       costmodel.TotalBytes(req.Algorithm, params),
		ApproxMsgs:       msgs,
		PredictedSeconds: costmodel.PredictedTime(req.Algorithm, params, machine, msgs),
	}, true
}

// Simulate runs the exact simulation for a canonicalized request on a
// one-shot Session — the same public path interactive callers use, so a
// cached Exact is byte-identical to an uncached conflux run by
// construction (pinned by TestExactMatchesUncachedSession).
func Simulate(ctx context.Context, req Request) (*Exact, error) {
	s, err := req.Session()
	if err != nil {
		return nil, err
	}
	var rep *conflux.VolumeReport
	if req.Job == JobSolve {
		rep, err = s.CommVolumeSolve(ctx, req.N)
	} else {
		rep, err = s.CommVolume(ctx, req.N)
	}
	if err != nil {
		return nil, err
	}
	grid := ""
	if eng, lerr := engine.Lookup(req.Algorithm); lerr == nil {
		grid = engine.GridDesc(eng, req.N, engine.Config{Ranks: req.P, Memory: req.Memory, NB: req.NB})
	}
	return &Exact{
		TotalBytes:     rep.TotalBytes(),
		AlgorithmBytes: conflux.AlgorithmBytes(rep),
		PerRankBytes:   rep.PerNodeBytes(),
		MaxRankBytes:   rep.MaxRankBytes(),
		Msgs:           rep.TotalMsgs(),
		MaxRankMsgs:    rep.Time.MaxRankMsgs(),
		Makespan:       rep.Time.Makespan,
		CritBusy:       rep.Time.CritBusy(),
		Grid:           grid,
	}, nil
}

// Options configures a Planner. The zero value selects serving defaults.
type Options struct {
	// MaxInFlight bounds concurrently running simulations (default
	// GOMAXPROCS).
	MaxInFlight int
	// MaxQueue bounds requests waiting for a simulation slot; a request
	// arriving with the queue full is shed immediately with
	// ErrOverloaded (default 64; negative means 0 — shed the moment the
	// pool is full).
	MaxQueue int
	// QueueTimeout bounds how long a queued computation waits for a slot
	// before shedding with ErrQueueTimeout (default 2s).
	QueueTimeout time.Duration
	// SimTimeout bounds one simulation's wall clock (default 2m); it
	// rides the Session cancellation machinery, so a stuck schedule
	// aborts instead of pinning a slot.
	SimTimeout time.Duration
	// MaxEntries bounds the result cache (default 64k entries).
	MaxEntries int
	// Runner computes the exact tier (default Simulate). Tests inject
	// fakes here.
	Runner func(ctx context.Context, req Request) (*Exact, error)
}

// Planner is the admission-controlled serving core: a result cache with
// singleflight in front of a bounded simulation pool. All methods are safe
// for concurrent use.
type Planner struct {
	cache        *Cache
	sem          chan struct{}
	maxQueue     int
	queueTimeout time.Duration
	simTimeout   time.Duration
	base         context.Context
	run          func(ctx context.Context, req Request) (*Exact, error)

	queued      atomic.Int64
	sims        atomic.Int64
	simErrors   atomic.Int64
	shedFull    atomic.Int64
	shedTimeout atomic.Int64
}

// NewPlanner constructs a planner whose background computations live until
// ctx is canceled (pass the server's lifetime context).
func NewPlanner(ctx context.Context, o Options) *Planner {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue == 0 {
		o.MaxQueue = 64
	}
	if o.MaxQueue < 0 {
		o.MaxQueue = 0
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = 2 * time.Second
	}
	if o.SimTimeout <= 0 {
		o.SimTimeout = 2 * time.Minute
	}
	if o.Runner == nil {
		o.Runner = Simulate
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &Planner{
		cache:        NewCache(o.MaxEntries),
		sem:          make(chan struct{}, o.MaxInFlight),
		maxQueue:     o.MaxQueue,
		queueTimeout: o.QueueTimeout,
		simTimeout:   o.SimTimeout,
		base:         ctx,
		run:          o.Runner,
	}
}

// Outcome classifies how Evaluate answered.
type Outcome string

const (
	// OutcomeHit: served from the cache.
	OutcomeHit Outcome = "hit"
	// OutcomeComputed: a simulation ran (or was joined) and completed
	// within the wait budget.
	OutcomeComputed Outcome = "computed"
	// OutcomePending: the simulation is still running; the caller got no
	// exact tier yet, but a later identical request will hit the cache.
	OutcomePending Outcome = "pending"
)

// Evaluate answers one canonicalized request: cache hit, join of an
// in-flight computation, or a freshly admitted simulation. wait bounds how
// long the caller blocks for the exact tier; 0 returns immediately
// (OutcomePending on anything but a hit) while the computation proceeds in
// the background — the fast-tier contract. Shedding (ErrOverloaded,
// ErrQueueTimeout) surfaces as an error to every caller coalesced onto the
// shed computation; the cache retries it on the next request.
//
// The computation itself is detached from the caller: it runs under the
// planner's lifetime context, so one canceled client never kills work
// other clients are waiting on.
func (p *Planner) Evaluate(ctx context.Context, req Request, wait time.Duration) (*Exact, Outcome, error) {
	req, err := req.Canonicalize()
	if err != nil {
		return nil, "", err
	}
	key := req.Key()
	e, owner := p.cache.begin(key)
	if owner {
		go p.compute(key, e, req)
	} else if e.completed() {
		if e.err != nil {
			return nil, "", e.err
		}
		return e.val, OutcomeHit, nil
	}
	if wait <= 0 {
		// Still report a completion that raced ahead of us.
		if e.completed() && e.err == nil {
			return e.val, OutcomeComputed, nil
		}
		return nil, OutcomePending, nil
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-e.done:
		if e.err != nil {
			return nil, "", e.err
		}
		return e.val, OutcomeComputed, nil
	case <-timer.C:
		return nil, OutcomePending, nil
	case <-ctx.Done():
		return nil, "", context.Cause(ctx)
	}
}

// compute is the detached owner-side computation: admission (bounded
// queue, queue timeout), then the simulation under the planner lifetime
// and the per-run timeout. Its outcome — value, simulation error, or typed
// shed error — is published to every waiter through the cache entry.
func (p *Planner) compute(key string, e *entry, req Request) {
	// Fast path: a free slot, no queueing.
	select {
	case p.sem <- struct{}{}:
	default:
		// Pool full: queue if there is room, shed otherwise.
		if q := p.queued.Add(1); q > int64(p.maxQueue) {
			p.queued.Add(-1)
			p.shedFull.Add(1)
			p.cache.complete(key, e, nil, fmt.Errorf("%w (%d in flight, %d queued)",
				ErrOverloaded, cap(p.sem), p.maxQueue))
			return
		}
		timer := time.NewTimer(p.queueTimeout)
		select {
		case p.sem <- struct{}{}:
			p.queued.Add(-1)
			timer.Stop()
		case <-timer.C:
			p.queued.Add(-1)
			p.shedTimeout.Add(1)
			p.cache.complete(key, e, nil, fmt.Errorf("%w (waited %v)", ErrQueueTimeout, p.queueTimeout))
			return
		case <-p.base.Done():
			p.queued.Add(-1)
			timer.Stop()
			p.cache.complete(key, e, nil, context.Cause(p.base))
			return
		}
	}
	defer func() { <-p.sem }()
	ctx, cancel := context.WithTimeout(p.base, p.simTimeout)
	defer cancel()
	p.sims.Add(1)
	val, err := p.run(ctx, req)
	if err != nil {
		p.simErrors.Add(1)
	}
	p.cache.complete(key, e, val, err)
}

// Stats is the planner's point-in-time serving view — the cache-stats
// surface cmd/confluxd exposes, and what the CI load test asserts
// singleflight on (50 concurrent identical requests → Simulations == 1).
type Stats struct {
	Cache            CacheStats `json:"cache"`
	Simulations      int64      `json:"simulations"`
	SimErrors        int64      `json:"sim_errors"`
	InFlight         int        `json:"in_flight"`
	Queued           int64      `json:"queued"`
	ShedQueueFull    int64      `json:"shed_queue_full"`
	ShedQueueTimeout int64      `json:"shed_queue_timeout"`
}

// Stats snapshots the serving counters.
func (p *Planner) Stats() Stats {
	return Stats{
		Cache:            p.cache.Stats(),
		Simulations:      p.sims.Load(),
		SimErrors:        p.simErrors.Load(),
		InFlight:         len(p.sem),
		Queued:           p.queued.Load(),
		ShedQueueFull:    p.shedFull.Load(),
		ShedQueueTimeout: p.shedTimeout.Load(),
	}
}
