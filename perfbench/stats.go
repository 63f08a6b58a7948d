package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail reports the highest percentile of xs, at most the 99th, that has
// at least minTail samples beyond it, with that percentile's level in
// (0, 0.99]. With minTail or fewer samples no percentile qualifies; tail
// then returns the maximum and level 0 so the caller can say so.
func tail(xs []float64) (value, level float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sorted(xs)
	if n <= minTail {
		return s[n-1], 0
	}
	i := n - 1 - minTail // minTail samples sit at indices i+1..n-1
	if p99 := int(math.Ceil(0.99*float64(n))) - 1; p99 < i {
		i = p99
	}
	return s[i], float64(i+1) / float64(n)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// failedRatio estimates the probability that an operation fails from
// failed of attempted operations: the posterior mean under the Jeffreys
// prior, (failed + 1/2) / (attempted + 1). Unlike the raw share it is
// never zero, so a bound relative to its median stays meaningful, and one
// extra failure in a run of thousands still triples it.
func failedRatio(failed, attempted int) float64 {
	return (float64(failed) + 0.5) / (float64(attempted) + 1)
}
