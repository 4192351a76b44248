package main

import (
	"math"
	"sort"
	"time"
)

// tailCap is the highest percentile the tail metric reports: past it a run
// of ten seconds measures scheduler and GC hiccups, not the system.
const tailCap = 0.99

// tailBeyond is how many samples must lie strictly above the reported tail.
const tailBeyond = 10

// median returns the middle value of xs (mean of the two middles for an even
// count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs, capped at tailCap, that still
// has at least tailBeyond samples strictly above it, together with that
// percentile (0–100). The value is the order statistic at rank k (1-based)
// with k/n the percentile, so the choice moves smoothly with the sample
// count. With fewer than tailBeyond+1 samples no such percentile exists and
// the maximum is returned with percentile 100.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	k := int(math.Ceil(tailCap*float64(n) - 1e-9))
	if k > n-tailBeyond {
		k = n - tailBeyond
	}
	return s[k-1], 100 * float64(k) / float64(n)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// medianDur is median over durations, in the given unit.
func medianDur(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}
