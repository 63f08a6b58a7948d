package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"linkpred/internal/cluster"
	"linkpred/internal/graph"
	"linkpred/internal/obs"
	"linkpred/internal/predict"
	"linkpred/internal/serve"
)

// cluster-live: a linkpredr router at default settings over 2
// memory-partitioned in-process shards without WAL, warm-started from one
// renren trace. Local-family /predict and /score go through the router,
// beside low-rate replicated /ingest so epochs advance. This is the only
// workload that drives the cluster layer — scatter, partial-list decode,
// MergeTopK, epoch re-asks and hedges. The latent family and the WAL are
// absent.

var clusterAlgs = []string{"CN", "AA", "RA"}

const (
	clWarmShare   = 0.85
	clPredictRate = 10
	clScoreRate   = 30
	clIngestRate  = 32 // 4-edge batches per second: an epoch every 4 s
	clBatch       = 4
	// clBurst is about how many /predict and /score requests the burst
	// sends.
	clBurst = 1600
)

type clEnv struct {
	warm      *graph.Trace
	shards    []*serve.Server
	ls        []*listener
	router    *listener
	pool      []scoreBatch
	evs       [][]serve.Event
	bodies    [][]byte
	pubMu     sync.Mutex
	pubs      map[int64]int // shard 0: snapshot seq → edges
	closeOnce sync.Once
}

func (e *clEnv) close() {
	e.closeOnce.Do(func() {
		if e.router != nil {
			e.router.stop()
		}
		for _, l := range e.ls {
			l.stop()
		}
		for _, s := range e.shards {
			s.Close()
		}
	})
}

func setupClusterLive(cfg runConfig, rec *recorder) (*clEnv, error) {
	tr := renren(cfg.seed, cfg.scale)
	m := int(clWarmShare * float64(len(tr.Edges)))
	e := &clEnv{warm: prefix(tr, m), pubs: map[int64]int{}}
	e.evs, e.bodies = ingestBatches(tr.Edges[m:], clBatch)
	g := e.warm.SnapshotAtEdge(m)
	// Split the sources where the CN sweep's cost halves, as an operator
	// sizing the partitions would.
	cut := predict.WeightedSourceRangesFor(g, 2, predict.CostModelFor("CN"))[0].Hi
	bounds := [][2]int{{0, cut}, {cut, 1 << 30}}
	where := map[string]string{}
	var urls []string
	for i, b := range bounds {
		b := b
		name := fmt.Sprintf("shard%d", i)
		sc := serverConfig(prefix(tr, m), rec, name)
		sc.Partition = &b
		if i == 0 {
			sc.OnPublish = func(s *serve.Snapshot) {
				e.pubMu.Lock()
				e.pubs[s.Seq] = s.Edges
				e.pubMu.Unlock()
			}
		}
		srv, err := serve.New(sc)
		if err != nil {
			e.close()
			return nil, err
		}
		e.shards = append(e.shards, srv)
		warmOpt := engineOpt()
		warmOpt.Workers = engineWorkers
		predict.Warm(srv.Snapshot().Graph, warmAlgs, warmOpt)
		h := srv.Handler()
		if rec != nil {
			h = rec.handler(name, h)
		}
		l, err := listen(h)
		if err != nil {
			e.close()
			return nil, err
		}
		e.ls = append(e.ls, l)
		urls = append(urls, l.url)
		u, _ := url.Parse(l.url)
		where[u.Host] = name
	}
	rc := cluster.Config{Shards: urls, Seed: 1, Partitioned: true}
	if rec != nil {
		rc.Client = &http.Client{
			Timeout:   reqTimeout,
			Transport: &transport{base: http.DefaultTransport.(*http.Transport).Clone(), rec: rec, where: where},
		}
	}
	var h http.Handler = cluster.New(rc).Handler()
	if rec != nil {
		h = rec.handler("router", h)
	}
	l, err := listen(h)
	if err != nil {
		e.close()
		return nil, err
	}
	e.router = l
	e.pool = scorePool(cfg.seed, g, clusterAlgs, scorePerAlg)
	if err := warmUp(l.url, clusterAlgs, func(alg string) []byte {
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

func (e *clEnv) body(o op) []byte {
	if o.kind == opIngest {
		return e.bodies[o.item]
	}
	return e.pool[o.item].body
}

func runClusterLive(cfg runConfig) (*report, error) {
	obs.Enable(true)
	var rec *recorder
	if cfg.traced {
		rec = &recorder{}
	}
	env, setups, err := timedSetups(cfg, func() (*clEnv, error) { return setupClusterLive(cfg, rec) }, (*clEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	g := newLoadgen(env.router.url, env.body)
	g.splitWrites()
	defer g.close()
	r := cfg.scaleRate()
	base := []stream{
		{kind: opPredict, rate: clPredictRate * r, algs: clusterAlgs, ks: queryKs},
		{kind: opScore, rate: clScoreRate * r, pool: len(env.pool)},
		{kind: opIngest, rate: clIngestRate * r},
	}
	g.assign = (&replay{available: len(env.evs)}).assign
	rep := &report{}
	if cfg.traced {
		rec.take()
		cpu0 := readCPU()
		outs, _, err := tracedPhase(cfg, g, base)
		if err != nil {
			return nil, err
		}
		cpu1 := readCPU()
		spans := rec.take()
		env.close()
		env.verify(rep, outs)
		clTraceMetrics(rep, outs, spans, cpu0, cpu1)
		finish(cfg, rep, "cluster-live", outs, spans)
		return rep, nil
	}
	// The queries' burst runs on the query connection; the ingest
	// connection idles.
	outs, all, rate, err := measure(cfg, g, base, burstSpec{kinds: []opKind{opPredict, opScore}, n: clBurst, workers: conns - 1})
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	env.close()
	env.verify(rep, all)
	rep.set("latency_p50_ms", "ms", latency(outs, cfg.info, opPredict, "predict"))
	latency(outs, cfg.info, opScore, "score")
	latency(outs, cfg.info, opIngest, "ingest_ack")
	servingMetrics(cfg, rep, setups, rss, outs, all, rate)
	cfg.info("property predict_repeat_share=%.4f snapcache_hit_ratio=%.4f ingest_overlap_share=%.4f",
		repeatShare(outs), hitRatio(), clientOverlap(outs))
	return rep, nil
}

// verify rebuilds the replicated stream in the order the router applied it
// (its ingest replies carry the trace length after each batch, read under
// the router's ingest lock) and checks every merged answer against a
// single full-graph reference at the answer's snapshot. A partial answer
// counts as failed.
func (e *clEnv) verify(rep *report, outs []outcome) {
	type applied struct{ end, item int }
	var order []applied
	for i := range outs {
		o := &outs[i]
		if o.op.kind != opIngest || !o.ok() {
			continue
		}
		var ir cluster.IngestResult
		if err := json.Unmarshal(o.body, &ir); err != nil || ir.Accepted != len(e.evs[o.op.item]) || ir.ShardErrors != 0 {
			rep.failf("ingest batch %d: bad reply %q", o.op.item, o.body)
			o.err = errMismatch
			continue
		}
		order = append(order, applied{ir.TraceEdges, o.op.item})
	}
	sort.Slice(order, func(a, b int) bool { return order[a].end < order[b].end })
	mir := newMirror(e.warm)
	for _, a := range order {
		if err := mir.apply(e.evs[a.item]); err != nil || len(mir.tr.Edges) != a.end {
			rep.failf("replicated stream: batch %d applied at %d, mirror at %d (%v)", a.item, a.end, len(mir.tr.Edges), err)
			return
		}
	}
	type answer struct {
		i int
		h head
	}
	var answers []answer
	for i := range outs {
		o := &outs[i]
		if !o.ok() || (o.op.kind != opPredict && o.op.kind != opScore) {
			continue
		}
		var h head
		if err := json.Unmarshal(o.body, &h); err != nil {
			rep.failf("%s: undecodable response: %v", o.op.kind, err)
			o.err = err
			continue
		}
		if h.Partial {
			o.err = fmt.Errorf("partial response")
			continue
		}
		answers = append(answers, answer{i, h})
	}
	sort.SliceStable(answers, func(a, b int) bool { return answers[a].h.SnapshotEdges < answers[b].h.SnapshotEdges })
	b := graph.NewIncrementalBuilder(mir.tr)
	refs := map[string][]byte{}
	var snap snapInfo
	for _, a := range answers {
		o, h := &outs[a.i], a.h
		e.pubMu.Lock()
		edges, ok := e.pubs[h.SnapshotSeq]
		e.pubMu.Unlock()
		if !ok || edges != h.SnapshotEdges || h.SnapshotEdges > len(mir.tr.Edges) {
			rep.failf("%s answered from snapshot %d/%d that was never published", o.op.kind, h.SnapshotSeq, h.SnapshotEdges)
			o.err = errMismatch
			continue
		}
		if snap.g == nil || snap.edges != h.SnapshotEdges {
			g := b.AtEdge(h.SnapshotEdges)
			snap = snapInfo{g: g, seq: h.SnapshotSeq, edges: h.SnapshotEdges, time: g.Time}
		}
		var key string
		if o.op.kind == opPredict {
			key = fmt.Sprintf("%d/%s/%d/%s", snap.seq, o.op.alg, o.op.k, h.ServedBy)
		} else {
			key = fmt.Sprintf("%d/score/%d/%s", snap.seq, o.op.item, h.ServedBy)
		}
		want, ok := refs[key]
		if !ok {
			var err error
			if o.op.kind == opPredict {
				want, err = refPredict(snap, o.op.alg, h.ServedBy, o.op.k, mir.ext)
			} else {
				sb := e.pool[o.op.item]
				want, err = refScore(snap, sb.alg, h.ServedBy, sb.pairs, identityDense)
			}
			if err != nil {
				rep.failf("%s %s: reference: %v", o.op.kind, key, err)
				o.err = err
				continue
			}
			refs[key] = want
		}
		if !bytes.Equal(o.body, want) {
			rep.failf("%s %s: %d response bytes differ from the %d reference bytes", o.op.kind, key, len(o.body), len(want))
			o.err = errMismatch
		}
	}
}

func clTraceMetrics(rep *report, outs []outcome, spans []span, cpu0, cpu1 cpuSample) {
	ix := index(spans)
	var acct accounting
	var gaps, self, shard, straggle, local, fanout []float64
	predicts, partial, calls := 0, 0, 0
	for i := range outs {
		o := &outs[i]
		if o.op.kind == opPredict && o.status == http.StatusOK {
			var h head
			if json.Unmarshal(o.body, &h) == nil && h.Partial {
				partial++
			}
		}
		if o.rid == 0 || o.status != http.StatusOK {
			continue
		}
		h, found := ix.handlerOf(o.rid, "router")
		sc := ix[o.rid][spShardCall]
		acct.add(o, h, found, sc)
		if !found {
			continue
		}
		gaps = append(gaps, ms(o.latency()-h.dur()))
		in, _ := union(sc, h.Start, h.End)
		switch o.op.kind {
		case opPredict:
			predicts++
			calls += len(sc)
			self = append(self, ms(h.dur()-in))
			first := map[string]span{}
			for _, c := range sc {
				if f, ok := first[c.Where]; !ok || c.Start.Before(f.Start) {
					first[c.Where] = c
				}
			}
			if len(first) > 1 {
				lo, hi := time.Duration(1<<62), time.Duration(0)
				for _, c := range first {
					lo, hi = min(lo, c.dur()), max(hi, c.dur())
				}
				straggle = append(straggle, ms(hi-lo))
			}
			for _, hs := range ix[o.rid][spHandler] {
				if hs.Where != "router" {
					shard = append(shard, ms(hs.dur()))
				}
			}
			for _, s := range ix[o.rid][spSweep] {
				if familyOf[s.What] == "local" {
					local = append(local, ms(s.dur()))
				}
			}
		case opIngest:
			fanout = append(fanout, ms(in))
		}
	}
	totalPredicts := stats(outs, opPredict).n
	t, _ := tail(local)
	rep.set("predict.local_sweep_p50_ms", "ms", median(local))
	rep.set("predict.local_sweep_p99_ms", "ms", t)
	rep.set("cluster.router_self_p50_ms", "ms", median(self))
	t, _ = tail(self)
	rep.set("cluster.router_self_p99_ms", "ms", t)
	rep.set("cluster.shard_p50_ms", "ms", median(shard))
	t, _ = tail(straggle)
	rep.set("cluster.straggler_gap_p99_ms", "ms", t)
	rep.set("cluster.shard_calls_per_predict", "count", ratio(float64(calls), float64(predicts)))
	rep.set("cluster.partial_share", "ratio", ratio(float64(partial), float64(totalPredicts)))
	rep.set("cluster.ingest_fanout_p50_ms", "ms", median(fanout))
	commonTraceMetrics(rep, outs, &acct, cpu0, cpu1, gaps)
}
