package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	conflux "repro"
	"repro/internal/costmodel"
	"repro/internal/plan"
)

// tracedRun is the separate traced run: it measures every layer, and it
// profiles the named workload's pass — CPU samples folded by layer, Go
// runtime counters, and the overhead against the same pass untraced. The
// named workload's part runs first.
func tracedRun(b *bench, workload string) error {
	ctx := context.Background()
	parts := []struct {
		name string
		run  func(context.Context, *bench, bool) error
	}{
		{"replay", replayLayers},
		{"numeric", numericLayers},
		{"serve", serveLayers},
	}
	for i, p := range parts {
		if p.name == workload {
			parts[0], parts[i] = parts[i], parts[0]
		}
	}
	for _, p := range parts {
		t0 := time.Now()
		if err := p.run(ctx, b, p.name == workload); err != nil {
			return fmt.Errorf("%s layers: %w", p.name, err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: traced %s layers in %.1fs\n", p.name, time.Since(t0).Seconds())
	}
	return nil
}

// serveLayers is the serve part of the traced run: one round of the serve
// traffic against confluxd, the planner's counters, in-process timings of
// the planner and topology layers, and — when the run traces the serve
// workload — a profiled in-process replay of a cold phase.
func serveLayers(ctx context.Context, b *bench, profiled bool) error {
	bin, err := buildConfluxd(b)
	if err != nil {
		return err
	}
	d, err := startDaemon(b, bin)
	if err != nil {
		return err
	}
	defer d.stop()
	tr := newTraffic(b.seed)
	r := tr.round(d, b.seed, hitBurst)
	r.report(b)
	if len(r.hits.lats) == 0 {
		return errNoSample("hit plan")
	}
	hits := scale(r.hits.lats, 1e3)
	if pm, ok := tailPercentile(len(hits)); !ok || pm < 990 {
		return fmt.Errorf("%d hit samples are too few for a p99", len(hits))
	}
	b.set("confluxd.hit_ms_p99", percentile(hits, 990), "ms")
	b.set("confluxd.hit_rps", float64(len(hits))/r.hitWall.Seconds(), "1/s")

	var st plan.Stats
	if err := d.getJSON("/v1/stats", &st); err != nil {
		return err
	}
	lookups := st.Cache.Hits + st.Cache.Misses + st.Cache.Joined
	b.set("plan.hit_ratio", float64(st.Cache.Hits)/float64(lookups), "ratio")
	b.set("plan.simulations", float64(st.Simulations), "count")
	b.set("plan.joined", float64(st.Cache.Joined), "count")

	sims := verify(ctx, b, tr.answers)
	if len(sims) == 0 {
		return errNoSample("plan.Simulate")
	}
	b.set("plan.simulate_s", median(sims), "s")
	topoLayers(ctx, b)

	pt := point{n: 512, p: 64, beta: 1e-10}
	req, err := pt.request(conflux.COnfLUX)
	if err != nil {
		return err
	}
	key := perCall(func() {
		c, _ := req.Canonicalize()
		_ = c.Key()
	})
	model := perCall(func() { plan.ModelFor(req) })
	pl := plan.NewPlanner(ctx, plan.Options{})
	small, err := point{n: 64, p: 4, beta: 1e-10}.request(conflux.COnfLUX)
	if err != nil {
		return err
	}
	if _, _, err := pl.Evaluate(ctx, small, planWait); err != nil {
		return err
	}
	eval := perCall(func() { pl.Evaluate(ctx, small, planWait) })
	b.set("plan.key_us", 1e6*key, "us")
	b.set("plan.model_us", 1e6*model, "us")
	b.set("plan.evaluate_hit_us", 1e6*eval, "us")
	// confluxd runs Canonicalize+Key, ModelFor and Evaluate once per
	// candidate; the rest of a hit's latency is HTTP and JSON.
	inProcess := float64(len(costmodel.Algorithms)) * (key + model + eval)
	b.set("confluxd.http_hit_overhead_ms", median(hits)-1e3*inProcess, "ms")

	if profiled {
		// The first phase warms the planner and the heap; the second is
		// the untraced baseline the profiled third is compared with.
		pl := plan.NewPlanner(ctx, plan.Options{})
		replicaCold(ctx, b, pl, tr.gen)
		untraced := replicaCold(ctx, b, pl, tr.gen)
		prof, err := startProfile(b, "serve")
		if err != nil {
			return err
		}
		replicaCold(ctx, b, pl, tr.gen)
		traced, err := prof.stop(b)
		if err != nil {
			return err
		}
		b.set("trace_overhead_pct", 100*(traced.Seconds()-untraced.Seconds())/untraced.Seconds(), "%")
	}
	return nil
}

// topoLayers times a cold point — every candidate simulated in-process,
// where nothing is cached — on the flat machine and under the contended
// dragonfly, median of three.
func topoLayers(ctx context.Context, b *bench) {
	for _, c := range []struct{ name, preset string }{{"flat", ""}, {"contended", "dragonfly-contended"}} {
		pt := point{n: 256, p: 64, beta: 1e-10, topology: c.preset}
		var cold []float64
		for range 3 {
			t0 := time.Now()
			ok := true
			for _, a := range costmodel.Algorithms {
				req, err := pt.request(a)
				if err == nil {
					_, err = plan.Simulate(ctx, req)
				}
				b.check(err == nil, "topology %s %s: %v", c.name, a, err)
				ok = ok && err == nil
			}
			if ok {
				cold = append(cold, time.Since(t0).Seconds())
			}
		}
		if len(cold) > 0 {
			b.set("topo.cold_s_p50."+c.name, median(cold), "s")
		}
	}
}

// replicaCold runs one cold phase over fresh points against an
// in-process planner the way confluxd handles /v1/plan — per candidate
// Canonicalize, Key, ModelFor and Evaluate — without HTTP. It returns the
// phase's wall time.
func replicaCold(ctx context.Context, b *bench, pl *plan.Planner, gen *pointGen) time.Duration {
	var t tally
	pts := gen.fresh()
	t0 := time.Now()
	coldTraffic(pts, gen.repeats(pts), func(pt point, _ bool) {
		q0 := time.Now()
		problem := ""
		for _, a := range costmodel.Algorithms {
			req, err := pt.request(a)
			if err != nil {
				problem = err.Error()
				break
			}
			_ = req.Key()
			plan.ModelFor(req)
			exact, _, err := pl.Evaluate(ctx, req, planWait)
			if err != nil || exact == nil {
				problem = fmt.Sprintf("%s: exact %v, error %v", a, exact, err)
			}
		}
		t.record(time.Since(q0), problem)
	})
	wall := time.Since(t0)
	t.report(b, "in-process plan")
	return wall
}

// getJSON decodes a GET answer of confluxd into v.
func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
