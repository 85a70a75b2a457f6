package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	conflux "repro"
	"repro/internal/engine"
	"repro/internal/smpi"
	"repro/internal/trace"
)

// The replay point: Session.CommVolume in volume (phantom) mode on the
// default executor, for every engine.
const (
	replayN     = 2048
	replayP     = 256
	replayWarmN = 256 // warm-up point of the set-up, same P
)

var replayEngines = []conflux.Algorithm{conflux.COnfLUX, conflux.CANDMC, conflux.LibSci, conflux.SLATE, conflux.Cholesky}

// pinned is the exact trace of one engine's replay at (replayN, replayP)
// under the default machine.
type pinned struct {
	bytes, msgs int64
	makespan    float64
}

var replayPinned = map[conflux.Algorithm]pinned{
	conflux.COnfLUX:  {496016640, 379726, 0.017875886399999347},
	conflux.CANDMC:   {727590656, 436364, 0.019193635200000655},
	conflux.LibSci:   {641736704, 486944, 0.07471472000001318},
	conflux.SLATE:    {640917504, 960256, 0.11058253280009775},
	conflux.Cholesky: {396460032, 230038, 0.00987324319999952},
}

// checkReplay compares one replay report with its pinned trace.
func (b *bench) checkReplay(a conflux.Algorithm, rep *trace.Report) {
	want := replayPinned[a]
	got := pinned{rep.TotalBytes(), rep.TotalMsgs(), rep.Time.Makespan}
	b.check(got == want, "replay %s: got bytes=%d msgs=%d makespan=%v, want %+v", a, got.bytes, got.msgs, got.makespan, want)
	b.executors[rep.Executor] = true
}

// replayOrder is the seed's permutation of the engines.
func replayOrder(seed uint64) []conflux.Algorithm {
	order := append([]conflux.Algorithm(nil), replayEngines...)
	rng := rand.New(rand.NewPCG(seed, 0x7265706c6179))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// newReplaySessions constructs one default-option Session per engine and
// warms each with a small replay.
func newReplaySessions(ctx context.Context) (map[conflux.Algorithm]*conflux.Session, error) {
	out := map[conflux.Algorithm]*conflux.Session{}
	for _, a := range replayEngines {
		s, err := conflux.New(conflux.WithRanks(replayP), conflux.WithAlgorithm(a))
		if err != nil {
			return nil, err
		}
		if _, err := s.CommVolume(ctx, replayWarmN); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", a, err)
		}
		out[a] = s
	}
	return out, nil
}

// replayPass runs Session.CommVolume for every engine in order, checks each
// report and returns the per-engine call times.
func replayPass(ctx context.Context, b *bench, sessions map[conflux.Algorithm]*conflux.Session, order []conflux.Algorithm) (map[conflux.Algorithm]time.Duration, map[conflux.Algorithm]*trace.Report) {
	times := map[conflux.Algorithm]time.Duration{}
	reps := map[conflux.Algorithm]*trace.Report{}
	for _, a := range order {
		t0 := time.Now()
		rep, err := sessions[a].CommVolume(ctx, replayN)
		times[a] = time.Since(t0)
		if err != nil {
			b.fail("replay "+string(a), err)
			continue
		}
		b.checkReplay(a, rep)
		reps[a] = rep
	}
	return times, reps
}

func runReplay(b *bench) error {
	ctx := context.Background()
	sessions, err := setups(b, nil, func() (map[conflux.Algorithm]*conflux.Session, error) {
		return newReplaySessions(ctx)
	})
	if err != nil {
		return err
	}
	order := replayOrder(b.seed)
	walls, peaks := measurePasses(b, func() { replayPass(ctx, b, sessions, order) })
	b.setPasses(walls, peaks, len(replayEngines))
	return nil
}

// decomposed is one engine replay run through smpi.Exec and engine.Run
// directly, with spans around both.
type decomposed struct {
	rep        *trace.Report
	runMax     time.Duration // the slowest rank's engine.Run span
	worldStart time.Duration // Exec start to the first rank body
	worldEnd   time.Duration // the last rank body to Exec return
}

// decompose replays engine a at (n, p) the way Session.CommVolume does —
// same world, machine, executor and safety timeout — but from this file,
// so the world's start and end and each rank's engine.Run are timed.
func decompose(ctx context.Context, log *spanLog, parent int, a conflux.Algorithm, n, p int) (decomposed, error) {
	eng, err := engine.Lookup(a)
	if err != nil {
		return decomposed{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, 10*time.Minute)
	defer cancel()
	cfg := engine.Config{Ranks: p}
	starts := make([]time.Time, p)
	ends := make([]time.Time, p)
	exec := log.begin("smpi.Exec "+string(a), parent)
	rep, err := smpi.Exec(ctx, smpi.Config{P: p, Machine: conflux.DefaultMachine(), MachineSet: true}, func(c *smpi.Comm) error {
		r := c.Rank()
		starts[r] = time.Now()
		_, _, err := eng.Run(c, nil, n, cfg)
		ends[r] = time.Now()
		return err
	})
	log.end(exec)
	if err != nil {
		return decomposed{}, err
	}
	first, last := starts[0], ends[0]
	d := decomposed{rep: rep}
	for r := range p {
		log.add("engine.Run "+string(a), exec, starts[r], ends[r])
		d.runMax = max(d.runMax, ends[r].Sub(starts[r]))
		if starts[r].Before(first) {
			first = starts[r]
		}
		if ends[r].After(last) {
			last = ends[r]
		}
	}
	s := log.get(exec)
	d.worldStart = first.Sub(log.epoch) - s.Start
	d.worldEnd = s.End - last.Sub(log.epoch)
	return d, nil
}

// replayLayers is the replay part of the traced run: an untraced pass
// through the public API, then the same replays decomposed into smpi.Exec
// and engine.Run (profiled when the run traces the replay workload), and an
// empty world at the replay P.
func replayLayers(ctx context.Context, b *bench, profiled bool) error {
	sessions, err := newReplaySessions(ctx)
	if err != nil {
		return err
	}
	order := replayOrder(b.seed)
	t0 := time.Now()
	times, reps := replayPass(ctx, b, sessions, order)
	untraced := time.Since(t0)
	for a, d := range times {
		b.set("conflux.commvolume_s."+string(a), d.Seconds(), "s")
	}

	var prof *profiler
	if profiled {
		if prof, err = startProfile(b, "replay"); err != nil {
			return err
		}
	}
	pass := b.spans.begin("replay pass", -1)
	var worldStart, worldEnd time.Duration
	for _, a := range order {
		d, err := decompose(ctx, b.spans, pass, a, replayN, replayP)
		if err != nil {
			b.fail("decomposed replay "+string(a), err)
			continue
		}
		b.checkReplay(a, d.rep)
		if u := reps[a]; u != nil {
			b.check(u.TotalBytes() == d.rep.TotalBytes() && u.TotalMsgs() == d.rep.TotalMsgs() && u.MaxRankBytes() == d.rep.MaxRankBytes(),
				"replay %s: decomposed counters differ from Session.CommVolume", a)
		}
		worldStart += d.worldStart
		worldEnd += d.worldEnd
		b.set("engine.run_s."+string(a), d.runMax.Seconds(), "s")
		b.set("smpi.msgs."+string(a), float64(d.rep.TotalMsgs()), "count")
		b.set("trace.bytes."+string(a), float64(d.rep.TotalBytes()), "B")
		b.set("trace.max_rank_bytes."+string(a), float64(d.rep.MaxRankBytes()), "B")
		b.set("trace.sim_makespan_s."+string(a), d.rep.Time.Makespan, "sim_s")
	}
	b.spans.end(pass)
	if prof != nil {
		traced, err := prof.stop(b)
		if err != nil {
			return err
		}
		b.set("trace_overhead_pct", 100*(traced.Seconds()-untraced.Seconds())/untraced.Seconds(), "%")
	}
	b.set("smpi.world_start_s", worldStart.Seconds(), "s")
	b.set("smpi.world_end_s", worldEnd.Seconds(), "s")

	var empty []float64
	for range 5 {
		t0 := time.Now()
		_, err := smpi.Exec(ctx, smpi.Config{P: replayP, Machine: conflux.DefaultMachine(), MachineSet: true}, func(*smpi.Comm) error { return nil })
		empty = append(empty, time.Since(t0).Seconds())
		b.check(err == nil, "empty world: %v", err)
	}
	b.set("smpi.empty_world_s", median(empty), "s")
	return nil
}
