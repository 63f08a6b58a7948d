package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"linkpred/internal/graph"
	"linkpred/internal/obs"
	"linkpred/internal/predict"
	"linkpred/internal/serve"
)

// query-static: one warm-started server, no ingest. /predict over the
// local and latent metrics at k ∈ {50, 200} plus 64-pair /score batches.
// The engine sweep, the queue and the encoder do all the work on a single
// epoch with a warm snapcache, and nearly every /predict repeats an
// earlier (epoch, alg, k): a memo, a kernel or an encode change shows
// here. The WAL, publish and the cluster do nothing.

var (
	queryAlgs = append(append([]string(nil), localAlgs...), latentAlgs...)
	queryKs   = []int{50, 200}
)

const (
	scorePerAlg = 8 // distinct score batches per algorithm
	// Offered rates of the measured phase (requests per second).
	qsPredictRate = 18
	qsScoreRate   = 100
	// qsBurst is about how many /predict and /score requests the burst
	// sends.
	qsBurst = 3000
)

type qsEnv struct {
	srv  *serve.Server
	l    *listener
	snap snapInfo
	pool []scoreBatch
	refs map[string][]byte // "alg/k/servedBy" and "score/item/servedBy"
}

func (e *qsEnv) close() {
	e.l.stop()
	e.srv.Close()
}

func identity(d graph.NodeID) int64      { return int64(d) }
func identityDense(x int64) graph.NodeID { return graph.NodeID(x) }

func setupQueryStatic(cfg runConfig, rec *recorder) (*qsEnv, error) {
	tr := renren(cfg.seed, cfg.scale)
	srv, err := serve.New(serverConfig(tr, rec, "server"))
	if err != nil {
		return nil, err
	}
	s := srv.Snapshot()
	warmOpt := engineOpt()
	warmOpt.Workers = engineWorkers
	predict.Warm(s.Graph, warmAlgs, warmOpt)
	var h = srv.Handler()
	if rec != nil {
		h = rec.handler("server", h)
	}
	l, err := listen(h)
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &qsEnv{srv: srv, l: l, snap: snapInfo{g: s.Graph, seq: s.Seq, edges: s.Edges, time: s.Time}, refs: map[string][]byte{}}
	for _, alg := range queryAlgs {
		for _, k := range queryKs {
			b, err := refPredict(e.snap, alg, alg, k, identity)
			if err != nil {
				e.close()
				return nil, err
			}
			e.refs[fmt.Sprintf("%s/%d/%s", alg, k, alg)] = b
		}
	}
	e.pool = scorePool(cfg.seed, s.Graph, queryAlgs, scorePerAlg)
	for i, b := range e.pool {
		ref, err := refScore(e.snap, b.alg, b.alg, b.pairs, identityDense)
		if err != nil {
			e.close()
			return nil, err
		}
		e.refs[fmt.Sprintf("score/%d/%s", i, b.alg)] = ref
	}
	if err := warmUp(l.url, queryAlgs, func(alg string) []byte {
		for _, b := range e.pool {
			if b.alg == alg {
				return b.body
			}
		}
		return nil
	}); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// timedSetups runs setup at least cfg.setups times, and more — up to
// maxSetups — until they took setupBudget together, so a short set-up is
// still measured over enough wall time to be steady. It keeps the last
// environment and returns the set-up times in seconds. A traced run sets
// up once.
func timedSetups[E any](cfg runConfig, setup func() (E, error), teardown func(E)) (E, []float64, error) {
	const (
		maxSetups   = 15
		setupBudget = 2 * time.Second
	)
	var env E
	var times []float64
	var total time.Duration
	for i := 0; i == 0 || (!cfg.traced && (i < cfg.setups || (total < setupBudget && i < maxSetups))); i++ {
		if i > 0 {
			teardown(env)
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			return env, nil, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
		env = e
	}
	return env, times, nil
}

var errMismatch = errors.New("answer differs from the reference")

// check byte-compares every successful answer with its reference,
// computing references for degraded answers on first use. A failed check
// marks the outcome failed.
func (e *qsEnv) check(rep *report, outs []outcome) {
	for i := range outs {
		o := &outs[i]
		if !o.ok() || (o.op.kind != opPredict && o.op.kind != opScore) {
			continue
		}
		var h head
		if err := json.Unmarshal(o.body, &h); err != nil {
			o.err = err
			rep.failf("%s: undecodable response: %v", o.op.kind, err)
			continue
		}
		var key string
		if o.op.kind == opPredict {
			key = fmt.Sprintf("%s/%d/%s", o.op.alg, o.op.k, h.ServedBy)
		} else {
			key = fmt.Sprintf("score/%d/%s", o.op.item, h.ServedBy)
		}
		want, ok := e.refs[key]
		if !ok && h.ServedBy != "" {
			var err error
			if o.op.kind == opPredict {
				want, err = refPredict(e.snap, o.op.alg, h.ServedBy, o.op.k, identity)
			} else {
				b := e.pool[o.op.item]
				want, err = refScore(e.snap, b.alg, h.ServedBy, b.pairs, identityDense)
			}
			if err != nil {
				rep.failf("%s %s: reference for %s: %v", o.op.kind, key, h.ServedBy, err)
				o.err = err
				continue
			}
			e.refs[key] = want
		}
		if !bytes.Equal(o.body, want) {
			rep.failf("%s %s: %d response bytes differ from the %d reference bytes", o.op.kind, key, len(o.body), len(want))
			o.err = errMismatch
		}
	}
}

func runQueryStatic(cfg runConfig) (*report, error) {
	obs.Enable(true)
	var rec *recorder
	if cfg.traced {
		rec = &recorder{}
	}
	env, setups, err := timedSetups(cfg, func() (*qsEnv, error) { return setupQueryStatic(cfg, rec) }, (*qsEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	g := newLoadgen(env.l.url, func(o op) []byte { return env.pool[o.item].body })
	defer g.close()
	r := cfg.scaleRate()
	base := []stream{
		{kind: opPredict, rate: qsPredictRate * r, algs: queryAlgs, ks: queryKs},
		{kind: opScore, rate: qsScoreRate * r, pool: len(env.pool)},
	}
	rep := &report{}
	if cfg.traced {
		rec.take()
		cpu0 := readCPU()
		outs, _, err := tracedPhase(cfg, g, base)
		if err != nil {
			return nil, err
		}
		cpu1 := readCPU()
		env.check(rep, outs)
		spans := rec.take()
		qsTraceMetrics(rep, outs, spans, cpu0, cpu1)
		finish(cfg, rep, "query-static", outs, spans)
		return rep, nil
	}
	outs, all, rate, err := measure(cfg, g, base, burstSpec{kinds: []opKind{opPredict, opScore}, n: qsBurst, workers: conns})
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	env.check(rep, all)
	rep.set("latency_p50_ms", "ms", latency(outs, cfg.info, opPredict, "predict"))
	latency(outs, cfg.info, opScore, "score")
	servingMetrics(cfg, rep, setups, rss, outs, all, rate)
	cfg.info("property predict_repeat_share=%.4f snapcache_hit_ratio=%.4f ingest_overlap_share=0", repeatShare(outs), hitRatio())
	return rep, nil
}

// scaleRate shrinks offered rates with the input scale (smoke tests).
func (c runConfig) scaleRate() float64 {
	if c.scale >= 1 {
		return 1
	}
	return 0.5
}

// servingMetrics fills the metrics every serving workload reports in its
// measured run: set-up time, the burst's rate, memory and failures. The
// failed ratio is taken over the fixed-rate phase, whose request count is
// a constant of the workload; a failure in the burst counts in failed.
func servingMetrics(cfg runConfig, rep *report, setups []float64, rss float64, phase, all []outcome, maxRate float64) {
	rep.set("setup_s", "s", median(setups))
	rep.set("max_rate_rps", "1/s", maxRate)
	rep.set("peak_rss_mb", "MiB", rss)
	rep.attempted = len(all)
	rep.failed = countFailed(all)
	rep.set("failed_ratio", "ratio", failedRatio(countFailed(phase), len(phase)))
	cfg.info("setup_s runs=%v", setups)
}

// finish writes a traced run's spans and fills its operation counts.
func finish(cfg runConfig, rep *report, workload string, outs []outcome, spans []span) {
	rep.attempted = len(outs)
	rep.failed = countFailed(outs)
	// The client's view of each request rides along as a "client" span
	// from due time to response read (N = dispatch lateness in µs).
	for i := range outs {
		o := &outs[i]
		spans = append(spans, span{RID: o.rid, Kind: "client", What: o.op.kind.String(), Start: o.due, End: o.done, N: int(o.sent.Sub(o.due).Microseconds())})
	}
	if path, err := writeSpans(workload, cfg.seed, spans); err == nil {
		cfg.info("spans %d written to %s", len(spans), path)
	}
	if s := rep.metrics["trace.unaccounted_share"].Value; s > tolerance {
		cfg.info("stage check: unaccounted share %.4f exceeds the %.2f tolerance", s, tolerance)
	} else {
		cfg.info("stage check: unaccounted share %.4f within the %.2f tolerance", s, tolerance)
	}
}

func qsTraceMetrics(rep *report, outs []outcome, spans []span, cpu0, cpu1 cpuSample) {
	ix := index(spans)
	var acct accounting
	var gaps, pre, post, local []float64
	predicts, predictSweeps := 0, 0
	for i := range outs {
		o := &outs[i]
		if o.rid == 0 || !o.ok() {
			continue
		}
		h, found := ix.handlerOf(o.rid, "server")
		kind := spSweep
		if o.op.kind == opScore {
			kind = spScore
		}
		sweeps := ix[o.rid][kind]
		acct.add(o, h, found, sweeps)
		if !found {
			continue
		}
		gaps = append(gaps, ms(o.latency()-h.dur()))
		if o.op.kind == opPredict {
			predicts++
			predictSweeps += len(sweeps)
		}
		if len(sweeps) == 0 {
			continue
		}
		pre = append(pre, ms(sweeps[0].Start.Sub(h.Start)))
		if o.op.kind == opPredict {
			post = append(post, ms(h.End.Sub(sweeps[len(sweeps)-1].End)))
			for _, s := range sweeps {
				if familyOf[s.What] == "local" {
					local = append(local, ms(s.dur()))
				}
			}
		}
	}
	var scoreSweeps []span
	pairs := 0
	for _, s := range spans {
		if s.Kind == spScore {
			scoreSweeps = append(scoreSweeps, s)
			pairs += s.N
		}
	}
	rep.set("serve.pre_sweep_p50_ms", "ms", median(pre))
	t, _ := tail(pre)
	rep.set("serve.pre_sweep_p99_ms", "ms", t)
	rep.set("serve.post_sweep_p50_ms", "ms", median(post))
	rep.set("serve.score_requests_per_sweep", "count", batchMean())
	rep.set("predict.local_sweep_p50_ms", "ms", median(local))
	t, _ = tail(local)
	rep.set("predict.local_sweep_p99_ms", "ms", t)
	rep.set("predict.score_sweep_p50_ms", "ms", median(durationsMS(scoreSweeps)))
	rep.set("predict.sweeps_per_predict", "count", ratio(float64(predictSweeps), float64(predicts)))
	rep.set("predict.pairs_scored_per_sweep", "count", ratio(float64(pairs), float64(len(scoreSweeps))))
	snapcacheMetrics(rep)
	commonTraceMetrics(rep, outs, &acct, cpu0, cpu1, gaps)
}

// batchMean is the program's own mean coalesced /score batch size.
func batchMean() float64 {
	h, ok := obs.LookupHistogram("serve/batch_size")
	if !ok {
		return 0
	}
	return ratio(float64(h.Sum()), float64(h.Count()))
}
