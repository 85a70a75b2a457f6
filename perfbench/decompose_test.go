package main

import (
	"context"
	"testing"

	conflux "repro"
)

// TestDecomposeMatchesCommVolume checks that the traced run's
// smpi.Exec+engine.Run decomposition replays exactly what
// Session.CommVolume replays, for every engine.
func TestDecomposeMatchesCommVolume(t *testing.T) {
	const n, p = 256, 16
	ctx := context.Background()
	for _, a := range replayEngines {
		s, err := conflux.New(conflux.WithRanks(p), conflux.WithAlgorithm(a))
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.CommVolume(ctx, n)
		if err != nil {
			t.Fatalf("%s: CommVolume: %v", a, err)
		}
		log := newSpanLog()
		d, err := decompose(ctx, log, -1, a, n, p)
		if err != nil {
			t.Fatalf("%s: decompose: %v", a, err)
		}
		got := d.rep
		if got.TotalBytes() != want.TotalBytes() || got.TotalMsgs() != want.TotalMsgs() ||
			got.MaxRankBytes() != want.MaxRankBytes() || got.Time.Makespan != want.Time.Makespan ||
			got.Executor != want.Executor {
			t.Errorf("%s: decomposed bytes=%d msgs=%d max=%d makespan=%v exec=%s; CommVolume bytes=%d msgs=%d max=%d makespan=%v exec=%s",
				a, got.TotalBytes(), got.TotalMsgs(), got.MaxRankBytes(), got.Time.Makespan, got.Executor,
				want.TotalBytes(), want.TotalMsgs(), want.MaxRankBytes(), want.Time.Makespan, want.Executor)
		}
		if d.worldStart < 0 || d.worldEnd < 0 || d.runMax <= 0 {
			t.Errorf("%s: world start %v, end %v, slowest rank %v", a, d.worldStart, d.worldEnd, d.runMax)
		}
		if self := log.selfTime(0); self < d.worldStart+d.worldEnd {
			t.Errorf("%s: Exec self time %v is below its start+end %v", a, self, d.worldStart+d.worldEnd)
		}
		if len(log.spans) != p+1 {
			t.Errorf("%s: %d spans, want the Exec span and one per rank", a, len(log.spans))
		}
	}
}
