package trace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Machine is the α-β (latency–bandwidth) machine model used to advance the
// simulated clocks: a message of b bytes costs Alpha + Beta·b seconds on
// each endpoint it occupies. The paper argues its pivoting and broadcast
// choices in exactly these terms (§7.3: partial pivoting needs O(N) messages
// on the critical path, tournament pivoting O(N/v)).
type Machine struct {
	Alpha float64 // per-message latency, seconds
	Beta  float64 // per-byte transfer cost, seconds per byte
}

// DefaultMachine returns paper-scale interconnect parameters in the class of
// Piz Daint's Cray Aries network (§8): ~1 µs message latency and ~10 GB/s
// injection bandwidth per node.
func DefaultMachine() Machine { return Machine{Alpha: 1e-6, Beta: 1e-10} }

// Time returns the α-β cost of moving the given traffic serially:
// msgs·Alpha + bytes·Beta. It is the one place the cost formula lives —
// the timeline's per-endpoint advance and costmodel.PredictedTime both
// route through it.
func (m Machine) Time(bytes, msgs float64) float64 {
	return msgs*m.Alpha + bytes*m.Beta
}

// IsZero reports whether m is the zero Machine value. Callers that want a
// "default when unset" rule must pair it with an explicit way to request
// the all-free machine (α = β = 0), which is a meaningful configuration —
// it isolates volume from timing — and not merely "unset".
func (m Machine) IsZero() bool { return m == Machine{} }

// Topology generalizes the flat Machine into a per-pair cost model: the
// occupancy a delivery (from, to, bytes) charges each endpoint, plus the
// time it holds the receiver's shared ingress link. It is the seam
// internal/topo plugs hierarchical, dragonfly, fat-tree, and contended
// models into; a nil Topology on the Timeline keeps the flat Machine path
// byte-for-byte unchanged.
//
// Determinism contract (DESIGN.md §14): every method must be a pure
// function of its arguments. All mutable contention state lives on the
// receiver's shard and advances only at matching, in the receiver's
// program order, so reports stay bit-identical across reps exactly as
// with the flat machine.
type Topology interface {
	// Name labels the model in TimeReport.Topology ("flat",
	// "hier+contention", "dragonfly+faults", ...).
	Name() string
	// SendCost is the sender-endpoint occupancy in seconds of injecting a
	// from → to transfer of the given size.
	SendCost(from, to int, bytes int64) float64
	// RecvCost is the receiver-endpoint occupancy of completing it.
	RecvCost(from, to int, bytes int64) float64
	// IngressOccupancy is how long the transfer holds the receiver's
	// shared ingress link before reception work can start. Transfers are
	// granted the link FIFO in the receiver's matching order; 0 means
	// uncontended (delivery starts at max(recv clock, send stamp), exactly
	// the flat rule).
	IngressOccupancy(from, to int, bytes int64) float64
}

// Event is one matched point-to-point delivery on the simulated machine.
// Phase is the sending rank's phase label at send time. SendTime is the
// sender's logical clock when the injection completed; RecvTime the
// receiver's clock when the delivery completed. One-sided (RMA) transfers
// appear with SendTime == RecvTime: only the origin's clock advances.
type Event struct {
	From, To int
	Bytes    int64
	Phase    string
	SendTime float64
	RecvTime float64
}

// DefaultEventCap bounds how many matched events a timeline retains. The
// aggregate counters and clocks are exact regardless of the cap; only the
// retained Events() slice is truncated (paper-scale replays produce tens of
// millions of deliveries — retaining them all would dwarf the phantom
// matrices the volume mode exists to avoid).
const DefaultEventCap = 1 << 20

// shard is one rank's slice of the timeline: its volume aggregates, its
// logical clock, and the events it completed. A point-to-point delivery
// touches only the two endpoint ranks' shards — the sender's under its
// mutex at injection, the receiver's under its mutex at matching (plus one
// lock-free add for the received-bytes aggregate) — so there is no global
// serialization point at paper scale (P = 1,024 ranks delivering tens of
// millions of messages).
//
// Lock-free fields: sent/recv/msgs are atomics because RecordOneSided
// attributes volume to ranks other than the one whose mutex it holds (a Get
// meters bytes sent by the passive target). Everything else on a shard is
// written only under its mutex, and only clock-carrying operations of this
// rank take it.
// phaseStat is one phase's attribution on one shard: the bytes/msgs this
// rank originated under the label, and the busy time it accrued in it (send,
// recv, and one-sided sides alike). A rank touches a handful of phases, so
// the stats live in a small slice scanned linearly — one lookup per record
// where the map-based layout paid three hashes plus the untimed-set probe
// (timed is resolved once, when the label first appears on the shard).
type phaseStat struct {
	name  string
	timed bool
	bytes int64
	msgs  int64
	busy  float64
}

type shard struct {
	mu sync.Mutex

	// Volume aggregates — exactly the state the pre-timeline Counter kept
	// per rank, so the merged Report() stays byte-identical. Atomics
	// because RecordOneSided attributes volume across shards (see below).
	sent atomic.Int64
	recv atomic.Int64
	msgs atomic.Int64

	// Per-phase attribution, in first-use order (deterministic: fixed by
	// this rank's program order). Report() sums the shards' stats, which
	// reproduces the old global maps exactly: integer addition is
	// order-independent, and busy times are never summed across ranks.
	phases []phaseStat

	// Timing state of this rank. busy is α-β work; wait is clock jumps on
	// matching. timedMsgs counts messages injected in timed phases only —
	// the latency-critical-path counterpart of the msgs aggregate.
	clock     float64
	busy      float64
	wait      float64
	timedMsgs int64

	// linkFree is when this rank's shared ingress link next frees up —
	// the FIFO contention state behind Topology.IngressOccupancy. It is
	// advanced only under this shard's mutex at matching, in this rank's
	// program order, which is what keeps contended runs deterministic
	// (DESIGN.md §14). Stays 0 under a nil or uncontended topology.
	linkFree float64

	// Events this rank completed (received, or originated one-sided), in
	// its program order. Retention is globally capped; see appendEvent.
	events  []Event
	dropped int64

	// No trailing pad needed: 128 field bytes = exactly two 64-byte cache
	// lines, so adjacent shards in the backing array do not false-share
	// under concurrent delivery; TestShardSizeCacheAligned pins the
	// arithmetic against field drift.
}

// phase returns the shard's stat for name, creating it on first use (the
// only point the untimed set is consulted). Scanned newest-first: traffic
// clusters in the phase set most recently.
func (s *shard) phase(name string, untimed map[string]bool) *phaseStat {
	for i := len(s.phases) - 1; i >= 0; i-- {
		if s.phases[i].name == name {
			return &s.phases[i]
		}
	}
	s.phases = append(s.phases, phaseStat{name: name, timed: !untimed[name]})
	return &s.phases[len(s.phases)-1]
}

// Timeline is the per-rank event-timeline substrate behind every simulated
// run: it meters communication volume exactly as the paper's Score-P
// methodology counts it (per sending rank, per phase) and simultaneously
// advances per-rank logical clocks under the α-β model. It is safe for
// concurrent use by all ranks of a simulated world; state is sharded per
// rank, so concurrent deliveries between disjoint rank pairs never contend.
//
// Clock rules (see DESIGN.md §7):
//
//	send  by r:  clock[r] += α + β·bytes          (injection, busy time)
//	recv  by r:  clock[r]  = max(clock[r], sendTime)   (wait time)
//	             clock[r] += α + β·bytes          (reception, busy time)
//	self-sends and local RMA access advance nothing (memory moves).
type Timeline struct {
	p       int
	machine Machine
	shards  []shard

	// topo, when non-nil, replaces the flat machine cost with a per-pair
	// topology model (SetTopology). Written only before the run starts,
	// read without locks on the delivery hot path.
	topo Topology

	// nEvents is the global retention counter backing the event cap.
	nEvents  atomic.Int64
	eventCap atomic.Int64

	// untimed phases are metered for volume but advance no clocks — the
	// paper's §7.4 assumption that the input "is already distributed in
	// the block cyclic layout" applied to simulated time: the layout
	// scatter and verification gather cost nothing. Written only before
	// the run starts (ExcludeFromTiming), read without locks during it.
	untimed map[string]bool
}

// NewTimeline creates the timeline for p ranks under machine m.
func NewTimeline(p int, m Machine) *Timeline {
	t := &Timeline{
		p: p, machine: m,
		shards:  make([]shard, p),
		untimed: map[string]bool{},
	}
	t.eventCap.Store(DefaultEventCap)
	return t
}

// Machine returns the α-β parameters the timeline advances clocks with.
func (t *Timeline) Machine() Machine { return t.machine }

// SetTopology replaces the flat machine cost with a per-pair topology
// model for every subsequent clock advance (nil restores the flat rule).
// Must be called before the run starts: the field is read without
// synchronization on the delivery hot path.
func (t *Timeline) SetTopology(tp Topology) { t.topo = tp }

// Topology returns the installed topology model, or nil for the flat
// machine.
func (t *Timeline) Topology() Topology { return t.topo }

// Clock returns rank's current logical clock.
func (t *Timeline) Clock(rank int) float64 {
	s := &t.shards[rank]
	s.mu.Lock()
	c := s.clock
	s.mu.Unlock()
	return c
}

// SetEventCap bounds event retention (0 retains nothing; aggregates and
// clocks are unaffected). Call before the run starts.
func (t *Timeline) SetEventCap(n int) { t.eventCap.Store(int64(n)) }

// ExcludeFromTiming marks phases whose traffic is metered for volume (and
// still recorded as events) but advances no logical clocks. The runtime
// excludes PhaseLayout and PhaseCollect by default, mirroring the volume
// accounting's AlgorithmBytes exclusion: the paper assumes the input is
// already distributed, so the housekeeping scatter/gather must not dominate
// the simulated makespan either. Must be called before the run starts: the
// set is read without synchronization on the delivery hot path.
func (t *Timeline) ExcludeFromTiming(phases ...string) {
	for _, ph := range phases {
		t.untimed[ph] = true
	}
}

// appendEvent retains e on shard s (which the caller holds locked) unless
// the global cap is exhausted. Which events survive once the cap is reached
// depends on arrival order across shards; runs that stay under the cap
// retain everything, deterministically.
func (t *Timeline) appendEvent(s *shard, e Event) {
	if t.nEvents.Add(1) <= t.eventCap.Load() {
		s.events = append(s.events, e)
	} else {
		s.dropped++
	}
}

// cost is the α-β occupancy of one message endpoint.
func (t *Timeline) cost(bytes int64) float64 {
	return t.machine.Time(float64(bytes), 1)
}

// RecordSend meters bytes sent by rank from (received by rank to) under the
// given phase label and advances the sender's clock by α + β·bytes. It
// returns the sender's clock after injection — the send timestamp the
// runtime carries on the message and hands back to RecordRecv on matching.
// Only the two endpoint shards are touched: the sender's under its mutex,
// the receiver's received-bytes counter lock-free.
func (t *Timeline) RecordSend(from, to int, bytes int64, phase string) float64 {
	s := &t.shards[from]
	s.mu.Lock()
	s.sent.Add(bytes)
	s.msgs.Add(1)
	ps := s.phase(phase, t.untimed)
	ps.bytes += bytes
	ps.msgs++
	if ps.timed {
		var d float64
		if t.topo != nil {
			d = t.topo.SendCost(from, to, bytes)
		} else {
			d = t.cost(bytes)
		}
		s.clock += d
		s.busy += d
		ps.busy += d
		s.timedMsgs++
	}
	st := s.clock
	s.mu.Unlock()
	t.shards[to].recv.Add(bytes)
	return st
}

// RecordRecv completes a matched delivery on the receiving rank: the clock
// jumps to max(local, sendTime) — the jump is wait time — then advances by
// α + β·bytes of reception work. The completed Event is retained on the
// receiver's shard. phase is the event's (send-side) phase label.
func (t *Timeline) RecordRecv(from, to int, bytes int64, phase string, sendTime float64) {
	s := &t.shards[to]
	s.mu.Lock()
	if ps := s.phase(phase, t.untimed); ps.timed {
		// Delivery starts when the message is in flight AND the receiver
		// reaches its matching point; under a contended topology it also
		// waits for the receiver's shared ingress link, granted FIFO in
		// this rank's matching order (deterministic: the only state is
		// this shard's linkFree, advanced only here, under this mutex, in
		// this rank's program order — DESIGN.md §14).
		start := s.clock
		if sendTime > start {
			start = sendTime
		}
		if t.topo != nil {
			if occ := t.topo.IngressOccupancy(from, to, bytes); occ > 0 {
				if s.linkFree > start {
					start = s.linkFree
				}
				s.linkFree = start + occ
			}
		}
		if start > s.clock {
			s.wait += start - s.clock
			s.clock = start
		}
		var d float64
		if t.topo != nil {
			d = t.topo.RecvCost(from, to, bytes)
		} else {
			d = t.cost(bytes)
		}
		s.clock += d
		s.busy += d
		ps.busy += d
	}
	// Untimed deliveries leave the receiver's clock alone, which can sit
	// behind the send stamp; clamp so the event interval is never negative.
	rt := s.clock
	if rt < sendTime {
		rt = sendTime
	}
	t.appendEvent(s, Event{From: from, To: to, Bytes: bytes, Phase: phase,
		SendTime: sendTime, RecvTime: rt})
	s.mu.Unlock()
}

// RecordOneSided meters an RMA transfer of bytes from → to whose time cost
// is charged to the active rank only (the origin of a Put or Get; the
// target is passive, per MPI one-sided semantics). Volume is attributed
// from → to exactly like a send; the event is retained on the active
// rank's shard.
func (t *Timeline) RecordOneSided(active, from, to int, bytes int64, phase string) {
	t.shards[from].sent.Add(bytes)
	t.shards[from].msgs.Add(1)
	t.shards[to].recv.Add(bytes)
	a := &t.shards[active]
	a.mu.Lock()
	ps := a.phase(phase, t.untimed)
	ps.bytes += bytes
	ps.msgs++
	if ps.timed {
		// The origin is the only rank whose clock advances; a Get
		// (active == to) pays the receiver-side occupancy, a Put the
		// sender-side. One-sided transfers involve no matching, so they
		// never touch the FIFO ingress-link state.
		var d float64
		switch {
		case t.topo != nil && active == to:
			d = t.topo.RecvCost(from, to, bytes)
		case t.topo != nil:
			d = t.topo.SendCost(from, to, bytes)
		default:
			d = t.cost(bytes)
		}
		a.clock += d
		a.busy += d
		ps.busy += d
		a.timedMsgs++
	}
	t.appendEvent(a, Event{From: from, To: to, Bytes: bytes, Phase: phase,
		SendTime: a.clock, RecvTime: a.clock})
	a.mu.Unlock()
}

// Events returns a copy of the retained (matched) events, merged
// deterministically: grouped by the rank that completed them (the receiver
// for two-sided deliveries, the origin for one-sided), ranks ascending,
// each rank's events in its program order. Per-rank program order is fixed
// by the schedule, so the merged sequence is identical across replays of a
// deterministic run regardless of goroutine interleaving. Retention is
// bounded by SetEventCap; EventsDropped reports the overflow.
func (t *Timeline) Events() []Event {
	// nEvents counts drops past the cap too; clamp the preallocation to
	// what can actually have been retained (a paper-scale run records tens
	// of millions of deliveries against a 2²⁰ cap).
	n := t.nEvents.Load()
	if c := t.eventCap.Load(); n > c {
		n = c
	}
	if n < 0 {
		n = 0
	}
	out := make([]Event, 0, n)
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		out = append(out, s.events...)
		s.mu.Unlock()
	}
	return out
}

// EventsDropped returns how many events exceeded the retention cap.
func (t *Timeline) EventsDropped() int64 {
	var n int64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += s.dropped
		s.mu.Unlock()
	}
	return n
}

// Report derives the immutable volume report — including the simulated-time
// sub-report — by merging the per-rank shards in rank order. The volume
// fields are identical to what the pre-shard global-mutex timeline (and the
// per-rank counters before it) produced: per-rank values live on their own
// shard, and the per-phase maps merge by integer addition, which no
// interleaving can perturb.
func (t *Timeline) Report() *Report {
	r := &Report{
		P:         t.p,
		Sent:      make([]int64, t.p),
		Recv:      make([]int64, t.p),
		Msgs:      make([]int64, t.p),
		ByPhase:   map[string]int64{},
		PhaseMsgs: map[string]int64{},
	}
	tr := &TimeReport{
		Machine:      t.machine,
		Clock:        make([]float64, t.p),
		Busy:         make([]float64, t.p),
		Wait:         make([]float64, t.p),
		Msgs:         make([]int64, t.p),
		CritPhases:   map[string]float64{},
		PhaseBusyMax: map[string]float64{},
	}
	if t.topo != nil {
		tr.Topology = t.topo.Name()
	}
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		r.Sent[i] = s.sent.Load()
		r.Recv[i] = s.recv.Load()
		r.Msgs[i] = s.msgs.Load()
		for _, ps := range s.phases {
			// Volume attribution: only stats with originated traffic add
			// keys (a receiver-side stat for a foreign phase carries 0 of
			// both and must not invent a phase the senders never metered).
			if ps.bytes != 0 || ps.msgs != 0 {
				r.ByPhase[ps.name] += ps.bytes
				r.PhaseMsgs[ps.name] += ps.msgs
			}
		}
		tr.Clock[i] = s.clock
		tr.Busy[i] = s.busy
		tr.Wait[i] = s.wait
		tr.Msgs[i] = s.timedMsgs
		if s.clock > tr.Makespan {
			tr.Makespan = s.clock
			tr.CritRank = i
		}
		for _, ps := range s.phases {
			if ps.timed && ps.busy > tr.PhaseBusyMax[ps.name] {
				tr.PhaseBusyMax[ps.name] = ps.busy
			}
		}
		s.mu.Unlock()
	}
	if t.p > 0 {
		cs := &t.shards[tr.CritRank]
		cs.mu.Lock()
		for _, ps := range cs.phases {
			if ps.timed {
				tr.CritPhases[ps.name] = ps.busy
			}
		}
		cs.mu.Unlock()
	}
	r.Time = tr
	return r
}

// TimeReport is the simulated-time view of one run under the α-β model:
// per-rank logical clocks, the busy/wait split, and the phase attribution
// of the critical (makespan-defining) rank.
type TimeReport struct {
	Machine Machine
	// Topology names the per-pair topology model the clocks advanced
	// under ("" = the flat Machine) — provenance, like Report.Executor.
	Topology string
	Makespan float64   // max final clock over ranks, seconds
	Clock    []float64 // per-rank final clocks
	Busy     []float64 // per-rank α-β transfer work
	Wait     []float64 // per-rank time spent blocked on matching
	Msgs     []int64   // per-rank messages injected in timed phases only
	CritRank int       // rank whose clock defines the makespan
	// CritPhases is the critical rank's busy time per phase label — where
	// the simulated critical path actually spends its communication time.
	CritPhases map[string]float64
	// PhaseBusyMax is, per phase, the largest busy time any single rank
	// spent in it — the phase's own critical path, independent of which
	// rank bounds the whole run (a phase can be latency-critical on a
	// rank the overall makespan never visits).
	PhaseBusyMax map[string]float64
}

// CritBusy returns the critical rank's transfer (busy) time: the pure α-β
// communication time on the critical path, excluding waits.
func (t *TimeReport) CritBusy() float64 {
	if t.CritRank >= len(t.Busy) {
		return 0
	}
	return t.Busy[t.CritRank]
}

// CritWait returns the critical rank's wait time. Makespan = CritBusy +
// CritWait by construction.
func (t *TimeReport) CritWait() float64 {
	if t.CritRank >= len(t.Wait) {
		return 0
	}
	return t.Wait[t.CritRank]
}

// MaxRankMsgs returns the maximum timed-phase message count injected by
// any single rank — the latency-bound critical path, with the untimed
// housekeeping phases excluded exactly as they are from the clocks.
func (t *TimeReport) MaxRankMsgs() int64 {
	var m int64
	for _, v := range t.Msgs {
		if v > m {
			m = v
		}
	}
	return m
}

// CritPhaseOrder returns the critical rank's phase labels sorted by
// descending busy time.
func (t *TimeReport) CritPhaseOrder() []string {
	keys := make([]string, 0, len(t.CritPhases))
	for k := range t.CritPhases {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if t.CritPhases[keys[i]] != t.CritPhases[keys[j]] {
			return t.CritPhases[keys[i]] > t.CritPhases[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}

// String renders a short human-readable timing summary.
func (t *TimeReport) String() string {
	s := fmt.Sprintf("makespan=%.6fs crit-rank=%d busy=%.6fs wait=%.6fs (α=%.2e β=%.2e)\n",
		t.Makespan, t.CritRank, t.CritBusy(), t.CritWait(), t.Machine.Alpha, t.Machine.Beta)
	for _, ph := range t.CritPhaseOrder() {
		s += fmt.Sprintf("  %-24s %12.6f s\n", ph, t.CritPhases[ph])
	}
	return s
}
