package conflux

import (
	"reflect"
	"sync"
	"testing"
)

// volumeUnder runs one volume replay with the given options. The Topology
// stamp is kept — same-preset comparisons agree on it, and the fault tests
// assert it.
func volumeUnder(t *testing.T, n int, opts ...Option) *VolumeReport {
	t.Helper()
	s, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.CommVolume(t.Context(), n)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestFlatTopologyParity pins the tentpole's backward-compatibility edge:
// the "flat" topology preset evaluates the exact float expression of the
// plain α-β machine, so every engine's report is bit-identical with and
// without it. A single ulp of drift here would split the planner cache.
func TestFlatTopologyParity(t *testing.T) {
	n, p := 96, 8
	for _, algo := range Engines() {
		base := volumeUnder(t, n, WithRanks(p), WithAlgorithm(algo))
		flat := volumeUnder(t, n, WithRanks(p), WithAlgorithm(algo), WithTopologyPreset("flat"))
		if flat.Time.Topology != "flat" {
			t.Fatalf("%s: topology stamp %q, want flat", algo, flat.Time.Topology)
		}
		flat.Time.Topology = "" // provenance; everything else must match bit-for-bit
		if !reflect.DeepEqual(base, flat) {
			t.Fatalf("%s: flat topology is not bit-identical to the plain machine", algo)
		}
	}
}

// TestFlatTopologyStamp: the preset is still visible as provenance even
// though the numbers are unchanged.
func TestFlatTopologyStamp(t *testing.T) {
	s, err := New(WithRanks(4), WithTopologyPreset("flat"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.CommVolume(t.Context(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Time.Topology != "flat" {
		t.Fatalf("topology stamp %q, want flat", rep.Time.Topology)
	}
}

// TestTopologyWidthDeterminism is the §14 determinism pin: under every
// non-flat preset — including the contended ones, whose FIFO ingress-link
// state is the one piece of topology state mutated during a run — reports
// are bit-identical across repetitions and across the number of worlds
// replayed concurrently (the width), with every rank of every world live
// on its own goroutine. Run under -race this also stresses that the link
// state is properly serialized under the shard mutexes.
func TestTopologyWidthDeterminism(t *testing.T) {
	n, p := 96, 8
	for _, preset := range TopologyPresets() {
		preset := preset
		t.Run(preset, func(t *testing.T) {
			t.Parallel()
			base := volumeUnder(t, n, WithRanks(p), WithTopologyPreset(preset))
			for _, width := range []int{1, 2, 4} {
				reps := make([]*VolumeReport, width)
				errs := make([]error, width)
				var wg sync.WaitGroup
				for i := range reps {
					wg.Add(1)
					go func() {
						defer wg.Done()
						s, err := New(WithRanks(p), WithTopologyPreset(preset))
						if err == nil {
							reps[i], err = s.CommVolume(t.Context(), n)
						}
						errs[i] = err
					}()
				}
				wg.Wait()
				for i, rep := range reps {
					if errs[i] != nil {
						t.Fatalf("width %d: replay %d: %v", width, i, errs[i])
					}
					if !reflect.DeepEqual(base, rep) {
						t.Fatalf("width %d: replay %d diverged from the first run", width, i)
					}
				}
			}
		})
	}
}

// TestContentionCharges: the contended hier preset can only slow a run
// down relative to its uncontended twin — ingress serialization adds wait
// time, never removes it — and must change the makespan on a schedule
// with concurrent deliveries into one rank. The point is chosen large
// enough for incast to actually overlap on a node ingress link: at toy
// sizes every delivery drains before the next send is even in flight and
// the contended report is correctly identical.
func TestContentionCharges(t *testing.T) {
	n, p := 512, 32
	un := volumeUnder(t, n, WithRanks(p), WithTopologyPreset("hier"))
	con := volumeUnder(t, n, WithRanks(p), WithTopologyPreset("hier-contended"))
	if con.Time.Makespan <= un.Time.Makespan {
		t.Fatalf("contended makespan %v not above uncontended %v",
			con.Time.Makespan, un.Time.Makespan)
	}
	if un.TotalBytes() != con.TotalBytes() {
		t.Fatal("contention changed communication volume — it must only re-time the schedule")
	}
}

// TestStragglerReattribution: slowing one rank's transfers must increase
// the makespan, inflate the straggler's own clock, and move the critical
// path off the unfaulted critical rank — re-attribution lands on the
// straggler or on a rank downstream of its late sends (a receiver is
// never earlier than the data it waits for), and either way the faulted
// report names a different bottleneck than the clean one.
func TestStragglerReattribution(t *testing.T) {
	n, p := 96, 8
	base := volumeUnder(t, n, WithRanks(p), WithTopologyPreset("hier"))
	straggler := (base.Time.CritRank + 3) % p // any non-critical rank
	faulted := volumeUnder(t, n, WithRanks(p), WithTopologyPreset("hier"),
		WithFaults(FaultPlan{Stragglers: []Straggler{{Rank: straggler, Factor: 64}}}))
	if faulted.Time.Makespan <= base.Time.Makespan {
		t.Fatalf("straggler did not increase the makespan: %v vs %v",
			faulted.Time.Makespan, base.Time.Makespan)
	}
	if faulted.Time.Clock[straggler] <= base.Time.Clock[straggler] {
		t.Fatalf("straggler clock did not inflate: %v vs %v",
			faulted.Time.Clock[straggler], base.Time.Clock[straggler])
	}
	if faulted.Time.CritRank == base.Time.CritRank {
		t.Fatalf("critical path stayed on rank %d — fault left attribution unchanged",
			base.Time.CritRank)
	}
	if faulted.Time.Topology != "hier+faults" {
		t.Fatalf("topology stamp %q, want hier+faults", faulted.Time.Topology)
	}
}

// TestLinkDegradation: an 8x-degraded inter-node link raises the makespan;
// faults compose with a plain (no-topology) session by wrapping the flat
// machine.
func TestLinkDegradation(t *testing.T) {
	n, p := 96, 8
	base := volumeUnder(t, n, WithRanks(p), WithTopologyPreset("hier"))
	faulted := volumeUnder(t, n, WithRanks(p), WithTopologyPreset("hier"),
		WithFaults(FaultPlan{Links: []LinkFault{{FromNode: -1, ToNode: 0, Factor: 8}}}))
	if faulted.Time.Makespan <= base.Time.Makespan {
		t.Fatalf("degraded link did not increase the makespan: %v vs %v",
			faulted.Time.Makespan, base.Time.Makespan)
	}
	flat := volumeUnder(t, n, WithRanks(p))
	flatFaulted := volumeUnder(t, n, WithRanks(p),
		WithFaults(FaultPlan{Stragglers: []Straggler{{Rank: 0, Factor: 4}}}))
	if flatFaulted.Time.Makespan <= flat.Time.Makespan {
		t.Fatalf("fault plan on a plain session had no effect: %v vs %v",
			flatFaulted.Time.Makespan, flat.Time.Makespan)
	}
}

// TestTopologyOptionValidation: invalid specs and plans fail at New with
// the public error surface, not at run time.
func TestTopologyOptionValidation(t *testing.T) {
	if _, err := New(WithTopologyPreset("torus")); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if _, err := New(WithTopology(Topology{Preset: "hier", Contention: 7})); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := New(WithFaults(FaultPlan{Stragglers: []Straggler{{Rank: 0, Factor: -1}}})); err == nil {
		t.Fatal("invalid fault plan accepted")
	}
	cfg, err := New(WithRanks(4), WithTopologyPreset("dragonfly-contended"),
		WithFaults(FaultPlan{Links: []LinkFault{{FromNode: 0, ToNode: 1, Factor: 2}}}))
	if err != nil {
		t.Fatal(err)
	}
	c := cfg.Config()
	if c.Topology.Preset != "dragonfly" || c.Topology.Contention != 1 {
		t.Fatalf("resolved spec %+v, want dragonfly family with contention", c.Topology)
	}
	if c.Faults == "" {
		t.Fatal("Config dropped the fault plan")
	}
}
