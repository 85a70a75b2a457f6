package main

import "testing"

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		wantPm int
		wantOK bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 500, true},
		{99, 500, true},
		{100, 900, true},
		{999, 900, true},
		{1000, 990, true},
		{9999, 990, true},
		{10000, 999, true},
	} {
		pm, ok := tailPercentile(c.n)
		if pm != c.wantPm || ok != c.wantOK {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, pm, ok, c.wantPm, c.wantOK)
		}
		if ok && c.n-rankOf(c.n, pm) < 10 {
			t.Errorf("n=%d: p%d leaves %d samples beyond it", c.n, pm, c.n-rankOf(c.n, pm))
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	if got := percentile(xs, 990); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	if got := percentile(xs, 500); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if xs[0] != 1000 {
		t.Error("percentile sorted its input in place")
	}
}
