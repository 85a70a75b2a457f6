package main

import (
	"fmt"
	"os"
	"slices"
	"time"
)

// median returns the median of xs (the mean of the two middle values for
// an even count). xs must not be empty.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailPermille are the percentiles, in per mille, a timing may report
// beside its median, highest first.
var tailPermille = []int{999, 990, 900, 500}

// rankOf is the nearest-rank position (1-based) of the pm-per-mille
// percentile among n sorted samples.
func rankOf(n, pm int) int { return (n*pm + 999) / 1000 }

// tailPercentile returns the highest percentile (in per mille) that has at
// least ten samples beyond it among n samples, and false when even the
// median has fewer.
func tailPercentile(n int) (int, bool) {
	for _, pm := range tailPermille {
		if n-rankOf(n, pm) >= 10 {
			return pm, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank pm-per-mille percentile of xs.
func percentile(xs []float64, pm int) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	r := rankOf(len(s), pm)
	if r < 1 {
		r = 1
	}
	return s[r-1]
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// describe prints a timing's median, its sample count and the highest
// percentile the sample count supports, to standard error.
func describe(name string, xs []float64, unit string) {
	line := fmt.Sprintf("perfbench: %s median %.4g %s (n=%d", name, median(xs), unit, len(xs))
	if pm, ok := tailPercentile(len(xs)); ok && pm > 500 {
		line += fmt.Sprintf(", p%g %.4g %s", float64(pm)/10, percentile(xs, pm), unit)
	}
	fmt.Fprintln(os.Stderr, line+")")
}
