package main

import (
	"math"
	"testing"
)

func TestTailHighestSupportedPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n           int
		value, levl float64
	}{
		{n: 0, value: 0, levl: 0},
		{n: 10, value: 10, levl: 0},       // no percentile has 10 samples beyond
		{n: 11, value: 1, levl: 1.0 / 11}, // only the minimum does
		{n: 100, value: 90, levl: 0.90},
		{n: 1000, value: 990, levl: 0.99},
		{n: 2000, value: 1980, levl: 0.99}, // capped at the 99th
	} {
		v, l := tail(seq(c.n))
		if v != c.value || math.Abs(l-c.levl) > 1e-12 {
			t.Errorf("tail of %d samples = %v at level %v, want %v at %v", c.n, v, l, c.value, c.levl)
		}
		if c.n > minTail {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < minTail {
				t.Errorf("tail of %d samples has %d samples beyond it, want >= %d", c.n, beyond, minTail)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestFailedRatioNeverZero(t *testing.T) {
	if r := failedRatio(0, 999); r != 0.5/1000 {
		t.Errorf("failedRatio(0, 999) = %v", r)
	}
	if failedRatio(1, 999) <= 2*failedRatio(0, 999) {
		t.Error("one failure must more than double the ratio")
	}
}
