package main

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestArrivalsArePoissonAndSeeded(t *testing.T) {
	const rate, dur = 50.0, 100 * time.Second
	a := arrivals(rand.New(rand.NewSource(7)), rate, dur)
	b := arrivals(rand.New(rand.NewSource(7)), rate, dur)
	c := arrivals(rand.New(rand.NewSource(8)), rate, dur)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different arrivals")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same arrivals")
	}
	if len(a) != int(rate*dur.Seconds()) {
		t.Fatalf("%d arrivals, want %d", len(a), int(rate*dur.Seconds()))
	}
	// Exponential gaps: mean 1/rate and coefficient of variation 1; the
	// share of gaps above the mean is e^-1.
	var sum, sq float64
	above := 0
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= dur || a[i-1] < 0 {
			t.Fatalf("arrival %d out of order or range: %v after %v", i, a[i], a[i-1])
		}
		g := (a[i] - a[i-1]).Seconds()
		sum += g
		sq += g * g
		if g > 1/rate {
			above++
		}
	}
	n := float64(len(a) - 1)
	mean := sum / n
	cv := math.Sqrt(sq/n-mean*mean) / mean
	if math.Abs(mean*rate-1) > 0.05 || math.Abs(cv-1) > 0.05 {
		t.Errorf("gap mean %.4fs (want %.4f), cv %.3f (want 1)", mean, 1/rate, cv)
	}
	if share := float64(above) / n; math.Abs(share-math.Exp(-1)) > 0.02 {
		t.Errorf("share of gaps above the mean %.3f, want %.3f", share, math.Exp(-1))
	}
}

func TestScheduleIsPureAndBalanced(t *testing.T) {
	streams := []stream{
		{kind: opPredict, rate: 30, algs: []string{"CN", "AA", "Katz"}, ks: []int{50, 200}},
		{kind: opScore, rate: 20, pool: 4},
		{kind: opHealth, rate: 10, fixed: true},
	}
	a := schedule(3, 0, 10*time.Second, streams)
	if b := schedule(3, 0, 10*time.Second, streams); !reflect.DeepEqual(a, b) {
		t.Fatal("same arguments gave different schedules")
	}
	if c := schedule(4, 0, 10*time.Second, streams); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	combos := map[string]int{}
	items := map[int]int{}
	counts := map[opKind]int{}
	for i, o := range a {
		if i > 0 && o.due < a[i-1].due {
			t.Fatal("schedule not in due order")
		}
		counts[o.kind]++
		switch o.kind {
		case opPredict:
			combos[o.alg+"/"+string(rune('0'+o.k/50))]++
		case opScore:
			items[o.item]++
		}
	}
	if counts[opPredict] != 300 || counts[opScore] != 200 || counts[opHealth] != 100 {
		t.Fatalf("counts %v, want 300 predict, 200 score, 100 healthz", counts)
	}
	for k, n := range combos {
		if n != 50 {
			t.Errorf("predict combination %s offered %d times, want 50", k, n)
		}
	}
	for k, n := range items {
		if n != 50 {
			t.Errorf("score batch %d offered %d times, want 50", k, n)
		}
	}
	// Scaling one stream leaves the others' arrivals untouched.
	doubled := append([]stream(nil), streams...)
	for i := range doubled {
		if doubled[i].kind == opScore {
			doubled[i].rate *= 2
		}
	}
	d := schedule(3, 0, 10*time.Second, doubled)
	var pa, pd []op
	for _, o := range a {
		if o.kind == opPredict {
			pa = append(pa, o)
		}
	}
	for _, o := range d {
		if o.kind == opPredict {
			pd = append(pd, o)
		}
	}
	if !reflect.DeepEqual(pa, pd) {
		t.Error("scaling /score changed the /predict arrivals")
	}
}
