package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

func TestFoldTraces(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"smpi":    20 * time.Millisecond,   // innermost internal frame under runtime/map frames
		"runtime": 10 * time.Millisecond,   // no repository frame
		"blas":    20 * time.Millisecond,   // innermost of blas, lu2d, smpi
		"root":    30 * time.Millisecond,   // public package, no internal frame
		"bench":   1200 * time.Millisecond, // the benchmark's own frames
		"other":   40 * time.Millisecond,   // an internal package outside cpuLayers
		"trace":   500 * time.Microsecond,  // generic frame with spaces in its name
	}
	if len(got) != len(want) {
		t.Errorf("folded layers %v, want %v", got, want)
	}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("layer %s = %v, want %v", l, got[l], d)
		}
	}
	s := shares(got)
	if len(s) != len(cpuLayers) {
		t.Fatalf("shares has %d layers, want %d", len(s), len(cpuLayers))
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	if sum < 99.999 || sum > 100.001 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestFoldTracesRejectsBadValue(t *testing.T) {
	in := "-----------+----\n  lots   runtime.futex\n"
	if _, err := foldTraces(strings.NewReader(in)); err == nil {
		t.Fatal("want an error for an unparseable sample value")
	}
}
