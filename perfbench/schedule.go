package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

type opKind int

const (
	opPredict opKind = iota
	opScore
	opIngest
	opHealth
)

var kindNames = [...]string{"predict", "score", "ingest", "healthz"}

func (k opKind) String() string { return kindNames[k] }

// op is one scheduled request. item indexes the workload's pre-encoded
// bodies: a score batch in the pool, or an ingest batch in replay order
// (assigned after scheduling, in due order).
type op struct {
	due  time.Duration // offset from the phase start
	kind opKind
	alg  string
	k    int
	item int
}

// stream is one Poisson arrival process of a traffic mix. Fixed streams
// (the /healthz poll) arrive every 1/rate seconds instead.
type stream struct {
	kind  opKind
	rate  float64 // arrivals per second
	algs  []string
	ks    []int
	pool  int // score batches to draw from
	fixed bool
}

// arrivals returns round(rate×dur) arrival offsets of a Poisson process
// over [0, dur), drawn from rng. Given its count, a Poisson process's
// arrival times are independent and uniform over the interval, so the
// offsets are sorted uniform draws: the arrivals stay Poisson-bursty while
// every seed offers exactly the same number of requests.
func arrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	n := int(math.Round(rate * dur.Seconds()))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// schedule merges the streams' arrivals over [0, dur) into one due-ordered
// list. Stream i of phase p draws from its own generator seeded by (seed,
// p, i), so the schedule is a pure function of its arguments and one
// stream's rate does not shift another's arrivals. A stream's requests
// cycle through every (alg, k, item) combination equally often, in an
// order the generator shuffles, so every seed offers the same mix.
func schedule(seed int64, phase int, dur time.Duration, streams []stream) []op {
	var ops []op
	for i, st := range streams {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(phase)*1_009 + int64(i)))
		var at []time.Duration
		if st.fixed {
			step := time.Duration(float64(time.Second) / st.rate)
			for t := time.Duration(0); t < dur; t += step {
				at = append(at, t)
			}
		} else {
			at = arrivals(rng, st.rate, dur)
		}
		algs, ks, pool := max(len(st.algs), 1), max(len(st.ks), 1), max(st.pool, 1)
		combos := algs * ks * pool
		var order []int
		for j := range at {
			if j%combos == 0 {
				order = append(order, rng.Perm(combos)...)
			}
			c := order[j]
			o := op{due: at[j], kind: st.kind}
			if len(st.algs) > 0 {
				o.alg = st.algs[c%algs]
			}
			if len(st.ks) > 0 {
				o.k = st.ks[c/algs%ks]
			}
			if st.pool > 0 {
				o.item = c / (algs * ks)
			}
			ops = append(ops, o)
		}
	}
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].due < ops[b].due })
	return ops
}
