package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "exec", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "rank 0", Parent: 0, Start: 10 * ms, End: 60 * ms},
		{Name: "rank 1", Parent: 0, Start: 20 * ms, End: 70 * ms}, // overlaps rank 0
		{Name: "rank 2", Parent: 0, Start: 80 * ms, End: 90 * ms}, // disjoint
		{Name: "late", Parent: 0, Start: 95 * ms, End: 120 * ms},  // clipped to the parent
		{Name: "grandchild", Parent: 1, Start: 30 * ms, End: 40 * ms},
		{Name: "other root", Parent: -1, Start: 0, End: 100 * ms},
	}
	// Covered: [10,70] + [80,90] + [95,100] = 75ms.
	if got := selfTime(spans, 0); got != 25*ms {
		t.Errorf("self time of exec = %v, want 25ms", got)
	}
	if got := selfTime(spans, 1); got != 40*ms {
		t.Errorf("self time of rank 0 = %v, want 40ms", got)
	}
	if got := selfTime(spans, 6); got != 100*ms {
		t.Errorf("self time of a childless span = %v, want 100ms", got)
	}
}

func TestSpanLog(t *testing.T) {
	l := newSpanLog()
	p := l.begin("parent", -1)
	t0 := time.Now()
	l.add("child", p, t0, t0.Add(time.Millisecond))
	l.end(p)
	if self := l.selfTime(p); self < 0 || self > l.get(p).End-l.get(p).Start {
		t.Errorf("self time %v outside the parent span", self)
	}
}
