package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	conflux "repro"
	"repro/internal/costmodel"
	"repro/internal/plan"
)

// The serve traffic: closed-loop clients. In a cold phase the first client
// sends fresh points one at a time — every (N, P) pair of coldNs × coldPs
// under each of coldTopos, shuffled, each with its own β so every key is
// new — and for coldRepeats of them a second client sends the same point at
// the same moment, so one of the two joins the other's running simulation.
// A hit-only burst over every point served so far follows.
const (
	coldRepeats   = 4
	hitBurst      = 2500 * time.Millisecond
	minHitSamples = 1000 // enough for a p99 with ten samples beyond it
	verifyPoints  = 2    // cold points re-simulated in-process per run
	planWait      = 15 * time.Second
)

var (
	coldNs    = []int{256, 512}
	coldPs    = []int{16, 64}
	coldTopos = []string{"", "", "hier", "dragonfly-contended"}
)

// point is one /v1/plan query.
type point struct {
	n, p     int
	beta     float64
	topology string
}

func (pt point) path() string {
	q := url.Values{}
	q.Set("n", strconv.Itoa(pt.n))
	q.Set("p", strconv.Itoa(pt.p))
	q.Set("beta", strconv.FormatFloat(pt.beta, 'g', -1, 64))
	if pt.topology != "" {
		q.Set("topology", pt.topology)
	}
	return "/v1/plan?" + q.Encode()
}

// request is the canonical plan request of pt for algorithm a, built the
// way confluxd builds it.
func (pt point) request(a conflux.Algorithm) (plan.Request, error) {
	req := plan.Request{Algorithm: a, N: pt.n, P: pt.p, Alpha: conflux.DefaultMachine().Alpha, Beta: pt.beta}
	if pt.topology != "" {
		spec, err := conflux.TopologyPreset(pt.topology)
		if err != nil {
			return req, err
		}
		req.Topology = spec
	}
	return req.Canonicalize()
}

// pointGen hands out fresh points: distinct β per point within a run.
type pointGen struct {
	rng  *rand.Rand
	next int
}

func newPointGen(seed uint64) *pointGen {
	return &pointGen{rng: rand.New(rand.NewPCG(seed, 0x7365727665))}
}

// fresh returns one cold phase's points: the balanced grid, shuffled.
func (g *pointGen) fresh() []point {
	var pts []point
	for _, n := range coldNs {
		for _, p := range coldPs {
			for _, tp := range coldTopos {
				g.next++
				beta := 1e-10 * (1 + (float64(g.next)+g.rng.Float64())/1000)
				pts = append(pts, point{n: n, p: p, beta: beta, topology: tp})
			}
		}
	}
	g.rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// repeats picks the indices of pts the second client sends as well.
func (g *pointGen) repeats(pts []point) map[int]bool {
	again := map[int]bool{}
	for _, i := range g.rng.Perm(len(pts))[:coldRepeats] {
		again[i] = true
	}
	return again
}

// coldTraffic drives one cold phase: the first client sends pts in order,
// waiting for each answer; for the points in again the second client sends
// the same point at the same moment. send performs one request; first
// tells which client sent it.
func coldTraffic(pts []point, again map[int]bool, send func(pt point, first bool)) {
	second := make(chan point)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for pt := range second {
			send(pt, false)
		}
	}()
	for i, pt := range pts {
		if again[i] {
			second <- pt // the second client is idle: closed loop
		}
		send(pt, true)
	}
	close(second)
	wg.Wait()
}

// planResponse mirrors the parts of confluxd's /v1/plan answer the checks
// read.
type planResponse struct {
	Request    plan.Request `json:"request"`
	Candidates []struct {
		Algorithm   conflux.Algorithm `json:"algorithm"`
		Exact       *plan.Exact       `json:"exact"`
		ExactStatus string            `json:"exact_status"`
		Key         string            `json:"key"`
	} `json:"candidates"`
}

// daemon is a running confluxd.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
}

// buildConfluxd builds confluxd from the checkout.
func buildConfluxd(b *bench) (string, error) {
	bin := filepath.Join(b.bin, "confluxd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/confluxd")
	cmd.Dir = b.root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building confluxd: %w", err)
	}
	return bin, nil
}

// freePort returns a loopback port nothing listens on right now.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon starts confluxd on loopback and waits until /healthz
// answers.
func startDaemon(b *bench, bin string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(b.work, "confluxd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	// confluxd must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 2, // the cold phase's two clients
		}},
		exited: make(chan struct{}),
	}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("confluxd exited during start-up")
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("confluxd did not answer /healthz: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop shuts confluxd down and waits for it to exit.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.client.CloseIdleConnections()
}

// get sends one plan query and returns its latency and decoded answer.
func (d *daemon) get(path string) (time.Duration, *planResponse, error) {
	t0 := time.Now()
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return lat, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var pr planResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return lat, nil, err
	}
	return lat, &pr, nil
}

// tally collects the outcomes of concurrent requests.
type tally struct {
	mu    sync.Mutex
	lats  []float64 // seconds
	bad   []string
	count int
}

func (t *tally) record(lat time.Duration, problem string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.count++
	if problem != "" {
		t.bad = append(t.bad, problem)
		return
	}
	t.lats = append(t.lats, lat.Seconds())
}

func (t *tally) report(b *bench, what string) {
	b.attempted += t.count
	b.failed += len(t.bad)
	for i, p := range t.bad {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %d more failures\n", what, len(t.bad)-5)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s: %s\n", what, p)
	}
}

// coldPhase runs one cold phase against confluxd. The first client's
// requests are the cold samples; the second client's repeats go to joins.
// It returns each point's answer.
func (d *daemon) coldPhase(pts []point, again map[int]bool, cold, joins *tally) map[point]*planResponse {
	answers := map[point]*planResponse{}
	coldTraffic(pts, again, func(pt point, first bool) {
		lat, pr, err := d.get(pt.path())
		problem := ""
		switch {
		case err != nil:
			problem = err.Error()
		case len(pr.Candidates) != len(costmodel.Algorithms):
			problem = fmt.Sprintf("%d candidates", len(pr.Candidates))
		default:
			for _, c := range pr.Candidates {
				if c.Exact == nil {
					problem = fmt.Sprintf("%s: no exact tier (%s)", c.Algorithm, c.ExactStatus)
				}
			}
		}
		if !first {
			joins.record(lat, problem)
			return
		}
		cold.record(lat, problem)
		if problem == "" {
			answers[pt] = pr
		}
	})
	return answers
}

// hitPhase sends random queries over pts from one closed-loop client for
// at least dur and minHitSamples requests, checking that every answer is an
// exact cache hit. It returns the phase's wall time. One client, not two:
// the benchmark shares a small host with confluxd, and a second client
// oversubscribes its CPUs — on two vCPUs that roughly doubled the
// run-to-run spread of the hit p50.
func (d *daemon) hitPhase(seed uint64, pts []point, dur time.Duration, t *tally) time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0))
	t0 := time.Now()
	for sent := 0; sent < minHitSamples || time.Since(t0) < dur; sent++ {
		lat, pr, err := d.get(pts[rng.IntN(len(pts))].path())
		problem := ""
		if err != nil {
			problem = err.Error()
		} else {
			for _, c := range pr.Candidates {
				if c.ExactStatus != string(plan.OutcomeHit) || c.Exact == nil {
					problem = fmt.Sprintf("%s: want an exact hit, got %q", c.Algorithm, c.ExactStatus)
				}
			}
		}
		t.record(lat, problem)
	}
	return time.Since(t0)
}

// verify re-simulates a seeded sample of the answered points in-process
// and checks that each served exact tier is the simulation's, returning
// the simulation times.
func verify(ctx context.Context, b *bench, answers map[point]*planResponse) []float64 {
	rng := rand.New(rand.NewPCG(b.seed, 0x766572696679))
	var pts []point
	for pt := range answers {
		pts = append(pts, pt)
	}
	// Map order is random: sort before the seeded pick.
	slices.SortFunc(pts, func(x, y point) int { return strings.Compare(x.path(), y.path()) })
	var sims []float64
	for _, i := range rng.Perm(len(pts))[:min(verifyPoints, len(pts))] {
		pr := answers[pts[i]]
		for _, c := range pr.Candidates {
			req := pr.Request
			req.Algorithm = c.Algorithm
			t0 := time.Now()
			want, err := plan.Simulate(ctx, req)
			sims = append(sims, time.Since(t0).Seconds())
			if err != nil {
				b.fail("verify "+string(c.Algorithm), err)
				continue
			}
			got := c.Exact
			b.check(got.TotalBytes == want.TotalBytes && got.Msgs == want.Msgs && got.Makespan == want.Makespan && c.Key == req.Key(),
				"served %s at %+v: got %+v, in-process %+v", c.Algorithm, pts[i], *got, *want)
		}
	}
	return sims
}

// traffic is one run's serve traffic: fresh points from gen, and every
// point answered so far, in the order first answered, with its answer.
type traffic struct {
	gen     *pointGen
	served  []point
	answers map[point]*planResponse
}

func newTraffic(seed uint64) *traffic {
	return &traffic{gen: newPointGen(seed), answers: map[point]*planResponse{}}
}

// serveRound is the outcome of one round.
type serveRound struct {
	cold, joins, hits tally
	hitWall           time.Duration
}

func (r *serveRound) report(b *bench) {
	r.cold.report(b, "cold plan")
	r.joins.report(b, "repeated cold plan")
	r.hits.report(b, "hit plan")
}

// round runs one cold phase over fresh points, then one hit burst of at
// least burst over every point answered so far.
func (t *traffic) round(d *daemon, seed uint64, burst time.Duration) *serveRound {
	r := &serveRound{}
	pts := t.gen.fresh()
	answers := d.coldPhase(pts, t.gen.repeats(pts), &r.cold, &r.joins)
	for _, pt := range pts {
		if pr, ok := answers[pt]; ok {
			t.served = append(t.served, pt)
			t.answers[pt] = pr
		}
	}
	if len(t.served) > 0 {
		r.hitWall = d.hitPhase(seed+uint64(len(t.served)), t.served, burst, &r.hits)
	}
	return r
}

func runServe(b *bench) error {
	d, err := setups(b, (*daemon).stop, func() (*daemon, error) {
		bin, err := buildConfluxd(b)
		if err != nil {
			return nil, err
		}
		d, err := startDaemon(b, bin)
		if err != nil {
			return nil, err
		}
		if _, _, err := d.get(point{n: 64, p: 4, beta: 1e-10}.path()); err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up request: %w", err)
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	defer d.stop()
	tr := newTraffic(b.seed)
	// A round's cold requests are a balanced mix of point sizes whose
	// latencies cluster by size, so the round's mean — not a median that
	// falls between two clusters — is its cold sample.
	var cold, hits []float64
	t0 := time.Now()
	for rounds := 0; rounds == 0 || time.Since(t0) < b.budget; rounds++ {
		r := tr.round(d, b.seed, hitBurst)
		r.report(b)
		if len(r.cold.lats) > 0 {
			cold = append(cold, mean(r.cold.lats))
		}
		hits = append(hits, r.hits.lats...)
	}
	rss, err := peakRSS(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return err
	}
	verify(context.Background(), b, tr.answers)
	if len(cold) == 0 || len(hits) == 0 {
		return errNoSample("serve")
	}
	describe("cold_s (round means)", cold, "s")
	describe("hit_ms", scale(hits, 1e3), "ms")
	b.set("pass_s", median(cold), "s")
	b.set("op_ms_p50", 1e3*median(hits), "ms")
	b.set("peak_rss_mb", rss, "MB")
	return nil
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = k * x
	}
	return out
}

func errNoSample(what string) error { return fmt.Errorf("%s: no successful sample", what) }
