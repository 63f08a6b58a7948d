package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"linkpred/internal/graph"
	"linkpred/internal/obs"
	"linkpred/internal/predict"
	"linkpred/internal/serve"
	"linkpred/internal/wal"
)

// ingest-live: the query-static server configuration with a WAL on
// DirStorage in a temp directory on the checkout's disk (checkpoint every
// 4096 edges), warm-started from the first half of a renren trace.
// Open-loop 16-edge /ingest batches replay the held-out half beside a
// /score stream over the local and latent metrics and a fixed-rate
// /healthz poll.
// Append, fsync, delta publish, warm goroutines and checkpoints compete
// with reads for the ingest lock and the cores, and every publish
// invalidates snapcache: a read-side gain that costs the write path, or a
// cache that cannot hit, shows here. The cluster does nothing. README.md
// records why it sends no /predict and 16-edge rather than 64-edge
// batches.

const (
	// The trace is larger than query-static's and half of it is held out,
	// so that the replay covers the measured phase plus the burst.
	ilScale      = 1.5
	ilWarmShare  = 0.5
	ilIngestRate = 20 // 16-edge batches per second in the measured phase
	ilBatch      = 16
	ilScoreRate  = 4
	ilPollRate   = 10 // /healthz polls per second
	// ilBurst is how many batches the burst sends on the write
	// connection: about nine checkpoints and seventy-five publishes, each
	// starting a warm build, so its rate averages over their stalls.
	ilBurst = 2400
)

type ilEnv struct {
	dir     string
	warm    *graph.Trace // a private copy of the warm start, for recovery
	srv     *serve.Server
	l       *listener
	pool    []scoreBatch
	evs     [][]serve.Event
	bodies  [][]byte
	snapsMu sync.Mutex
	snaps   map[int64]*serve.Snapshot
	closed  bool
}

func (e *ilEnv) close() {
	if !e.closed {
		e.l.stop()
		e.srv.Close()
		e.closed = true
	}
}

func (e *ilEnv) remove() {
	e.close()
	if err := os.RemoveAll(e.dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: remove wal dir:", err)
	}
}

func setupIngestLive(cfg runConfig, rec *recorder) (*ilEnv, error) {
	tr := renren(cfg.seed, ilScale*cfg.scale)
	m := int(ilWarmShare * float64(len(tr.Edges)))
	e := &ilEnv{warm: prefix(tr, m), snaps: map[int64]*serve.Snapshot{}}
	e.evs, e.bodies = ingestBatches(tr.Edges[m:], ilBatch)
	dir, err := os.MkdirTemp(workDir, "wal-")
	if err != nil {
		return nil, err
	}
	e.dir = dir
	var st wal.Storage
	if rec != nil {
		st, err = newTracedStorage(dir, rec)
	} else {
		st, err = wal.NewDirStorage(dir)
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	sc := serverConfig(prefix(tr, m), rec, "server")
	sc.WAL = st
	sc.CheckpointEvery = 4096
	sc.OnPublish = func(s *serve.Snapshot) {
		e.snapsMu.Lock()
		e.snaps[s.Seq] = s
		e.snapsMu.Unlock()
		if rec != nil {
			now := time.Now()
			rec.add(span{Kind: spPublish, Start: now, End: now, N: s.Edges})
		}
	}
	if e.srv, err = serve.New(sc); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := e.srv.Snapshot()
	warmOpt := engineOpt()
	warmOpt.Workers = engineWorkers
	predict.Warm(s.Graph, warmAlgs, warmOpt)
	h := e.srv.Handler()
	if rec != nil {
		h = rec.handler("server", h)
	}
	if e.l, err = listen(h); err != nil {
		e.srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	e.pool = scorePool(cfg.seed, s.Graph, queryAlgs, scorePerAlg)
	if err := warmUp(e.l.url, queryAlgs, func(alg string) []byte {
		for _, b := range e.pool {
			if b.alg == alg {
				return b.body
			}
		}
		return nil
	}); err != nil {
		e.remove()
		return nil, err
	}
	return e, nil
}

func (e *ilEnv) body(o op) []byte {
	if o.kind == opIngest {
		return e.bodies[o.item]
	}
	return e.pool[o.item].body
}

func runIngestLive(cfg runConfig) (*report, error) {
	obs.Enable(true)
	var rec *recorder
	if cfg.traced {
		rec = &recorder{}
	}
	env, setups, err := timedSetups(cfg, func() (*ilEnv, error) { return setupIngestLive(cfg, rec) }, (*ilEnv).remove)
	if err != nil {
		return nil, err
	}
	defer env.remove()
	g := newLoadgen(env.l.url, env.body)
	g.splitWrites()
	defer g.close()
	r := cfg.scaleRate()
	base := []stream{
		{kind: opIngest, rate: ilIngestRate * r},
		{kind: opScore, rate: ilScoreRate * r, pool: len(env.pool)},
		{kind: opHealth, rate: ilPollRate, fixed: true},
	}
	g.assign = (&replay{available: len(env.evs)}).assign
	rep := &report{}
	if cfg.traced {
		rec.take()
		cpu0 := readCPU()
		outs, wall, err := tracedPhase(cfg, g, base)
		if err != nil {
			return nil, err
		}
		cpu1 := readCPU()
		spans := rec.take()
		ilTraceMetrics(rep, outs, spans, cpu0, cpu1, wall)
		env.close()
		env.verify(rep, outs)
		finish(cfg, rep, "ingest-live", outs, spans)
		return rep, nil
	}
	outs, all, rate, err := measure(cfg, g, base, burstSpec{kinds: []opKind{opIngest}, n: ilBurst, workers: 1})
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	env.close()
	vis := env.verify(rep, all)
	// The ack tail is printed but not reported: it flips from run to run
	// between a few milliseconds and the 150–600ms stall a checkpoint's
	// fsync imposes on the acks queued behind it, depending on whether
	// that stall holds ten of them. The traced run's serve.ingest_handler_*
	// and wal.* metrics show the stall.
	rep.set("latency_p50_ms", "ms", latency(outs, cfg.info, opIngest, "ingest_ack"))
	latency(outs, cfg.info, opScore, "score")
	visibility(outs, vis, cfg.info)
	servingMetrics(cfg, rep, setups, rss, outs, all, rate)
	cfg.info("property predict_repeat_share=%.4f snapcache_hit_ratio=%.4f ingest_overlap_share=%.4f",
		repeatShare(outs), hitRatio(), clientOverlap(outs))
	return rep, nil
}

// verify runs after the server closed. It reopens the WAL and asserts that
// every acked edge was recovered, in a prefix holding nothing else. It
// then byte-compares every answer with a reference computed on the
// snapshot OnPublish recorded under the answer's snapshot_seq. verify
// returns, per acked /ingest outcome index, the trace length that covers
// the batch.
func (e *ilEnv) verify(rep *report, outs []outcome) map[int]int {
	st, err := wal.NewDirStorage(e.dir)
	if err != nil {
		rep.failf("reopen wal: %v", err)
		return nil
	}
	log, rec, err := wal.Open(st, wal.Options{}, e.warm)
	if err != nil {
		rep.failf("reopen wal: %v", err)
		return nil
	}
	if err := log.Close(); err != nil {
		rep.failf("close reopened wal: %v", err)
	}
	base := len(e.warm.Edges)
	pos := map[[2]int64]int{}
	for i, ed := range rec.Trace.Edges[base:] {
		pos[[2]int64{rec.Rev[ed.U], rec.Rev[ed.V]}] = base + i
	}
	cover := map[int]int{}
	acked := 0
	for i := range outs {
		o := &outs[i]
		if o.op.kind != opIngest || !o.ok() {
			continue
		}
		end := 0
		for _, ev := range e.evs[o.op.item] {
			p, ok := pos[[2]int64{ev.U, ev.V}]
			if !ok {
				rep.failf("acked edge (%d,%d) of batch %d missing after WAL reopen", ev.U, ev.V, o.op.item)
				o.err = errMismatch
				break
			}
			end = max(end, p+1)
		}
		acked += len(e.evs[o.op.item])
		cover[i] = end
	}
	if got := len(rec.Trace.Edges) - base; got != acked {
		rep.failf("WAL reopen recovered %d edges past the warm start, %d were acked", got, acked)
	}

	type answer struct {
		i   int
		h   head
		key string
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
		s, ok := e.snaps[h.SnapshotSeq]
		if !ok || s.Edges != h.SnapshotEdges {
			rep.failf("%s answered from snapshot %d/%d that was never published", o.op.kind, h.SnapshotSeq, h.SnapshotEdges)
			o.err = errMismatch
			continue
		}
		key := fmt.Sprintf("%d/%s/%d/%s", h.SnapshotSeq, o.op.alg, o.op.k, h.ServedBy)
		if o.op.kind == opScore {
			key = fmt.Sprintf("%d/score/%d/%s", h.SnapshotSeq, o.op.item, h.ServedBy)
		}
		answers = append(answers, answer{i, h, key})
	}
	// Recompute in snapshot order so the artifact cache serves each
	// snapshot's references together.
	sort.SliceStable(answers, func(a, b int) bool { return answers[a].h.SnapshotSeq < answers[b].h.SnapshotSeq })
	ext := func(d graph.NodeID) int64 { return rec.Rev[d] }
	refs := map[string][]byte{}
	for _, a := range answers {
		o, h := &outs[a.i], a.h
		want, ok := refs[a.key]
		if !ok {
			s := e.snaps[h.SnapshotSeq]
			snap := snapInfo{g: s.Graph, seq: s.Seq, edges: s.Edges, time: s.Time}
			var err error
			if o.op.kind == opPredict {
				want, err = refPredict(snap, o.op.alg, h.ServedBy, o.op.k, ext)
			} else {
				b := e.pool[o.op.item]
				want, err = refScore(snap, b.alg, h.ServedBy, b.pairs, identityDense)
			}
			if err != nil {
				rep.failf("%s %s: reference: %v", o.op.kind, a.key, err)
				o.err = err
				continue
			}
			refs[a.key] = want
		}
		if !bytes.Equal(o.body, want) {
			rep.failf("%s %s: %d response bytes differ from the %d reference bytes", o.op.kind, a.key, len(o.body), len(want))
			o.err = errMismatch
		}
	}
	return cover
}

// visibility prints the median and tail of, per acked batch, the time from its due time until the first observed response — a query
// answer or a /healthz poll, ordered by when it was read — reported
// snapshot_edges covering it. Batches no observation covered before the
// phase ended are left out and counted.
func visibility(outs []outcome, cover map[int]int, info func(string, ...any)) {
	type seen struct {
		at    time.Time
		edges int
	}
	var obsv []seen
	for i := range outs {
		o := &outs[i]
		if !o.ok() || o.op.kind == opIngest {
			continue
		}
		var h head
		if json.Unmarshal(o.body, &h) == nil {
			obsv = append(obsv, seen{o.done, h.SnapshotEdges})
		}
	}
	sort.Slice(obsv, func(a, b int) bool { return obsv[a].at.Before(obsv[b].at) })
	for i := 1; i < len(obsv); i++ {
		obsv[i].edges = max(obsv[i].edges, obsv[i-1].edges)
	}
	var vis []float64
	censored := 0
	for i := range outs {
		c, ok := cover[i]
		if !ok {
			continue
		}
		j := sort.Search(len(obsv), func(j int) bool { return obsv[j].edges >= c })
		if j == len(obsv) {
			censored++
			continue
		}
		vis = append(vis, ms(obsv[j].at.Sub(outs[i].due)))
	}
	t, level := tail(vis)
	info("latency visible: n=%d censored=%d p50=%.3fms tail=p%.1f(%.3fms)", len(vis), censored, median(vis), 100*level, t)
}

// clientOverlap is the share of /ingest requests whose client interval
// overlaps another's.
func clientOverlap(outs []outcome) float64 {
	var ivs []span
	for i := range outs {
		if o := &outs[i]; o.op.kind == opIngest {
			ivs = append(ivs, span{Start: o.sent, End: o.done})
		}
	}
	return overlapShare(ivs)
}

// overlapShare is the share of intervals overlapping at least one other.
func overlapShare(ivs []span) float64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].Start.Before(ivs[b].Start) })
	hit := make([]bool, len(ivs))
	for i := range ivs {
		for j := i + 1; j < len(ivs) && ivs[j].Start.Before(ivs[i].End); j++ {
			hit[i], hit[j] = true, true
		}
	}
	n := 0
	for _, h := range hit {
		if h {
			n++
		}
	}
	return ratio(float64(n), float64(len(ivs)))
}

func ilTraceMetrics(rep *report, outs []outcome, spans []span, cpu0, cpu1 cpuSample, wall time.Duration) {
	ix := index(spans)
	var syncs, writes, ckStart, ckEnd, publishes []span
	for _, s := range spans {
		switch s.Kind {
		case spSync:
			syncs = append(syncs, s)
		case spWrite:
			writes = append(writes, s)
		case spCkptStart:
			ckStart = append(ckStart, s)
		case spCkptEnd:
			ckEnd = append(ckEnd, s)
		case spPublish:
			publishes = append(publishes, s)
		}
	}
	var segSyncs []span
	for _, s := range syncs {
		if s.What != ckptTmp {
			segSyncs = append(segSyncs, s)
		}
	}
	var acct accounting
	var gaps, pre, latent, ingest, nonsync, withPub, withoutPub []float64
	var ingestSpans []span
	var ingestTotal, syncInIngest time.Duration
	queries, degraded := 0, 0
	for i := range outs {
		o := &outs[i]
		if !o.ok() {
			continue
		}
		if o.op.kind == opPredict || o.op.kind == opScore {
			queries++
			var h head
			if json.Unmarshal(o.body, &h) == nil && h.Degraded {
				degraded++
			}
		}
		if o.rid == 0 {
			continue
		}
		h, found := ix.handlerOf(o.rid, "server")
		var children []span
		switch o.op.kind {
		case opPredict:
			children = ix[o.rid][spSweep]
		case opScore:
			children = ix[o.rid][spScore]
		case opIngest:
			if found {
				children = within(segSyncs, h)
			}
		}
		acct.add(o, h, found, children)
		if !found {
			continue
		}
		gaps = append(gaps, ms(o.latency()-h.dur()))
		switch o.op.kind {
		case opPredict, opScore:
			if len(children) > 0 {
				pre = append(pre, ms(children[0].Start.Sub(h.Start)))
			}
			for _, s := range children {
				if familyOf[s.What] == "latent" {
					latent = append(latent, ms(s.dur()))
				}
			}
		case opIngest:
			in, _ := union(children, h.Start, h.End)
			ingest = append(ingest, ms(h.dur()))
			nonsync = append(nonsync, ms(h.dur()-in))
			ingestSpans = append(ingestSpans, h)
			ingestTotal += h.dur()
			syncInIngest += in
			if len(within(publishes, h)) > 0 {
				withPub = append(withPub, ms(h.dur()))
			} else {
				withoutPub = append(withoutPub, ms(h.dur()))
			}
		}
	}
	ingests, edges := 0, 0
	for i := range outs {
		if o := &outs[i]; o.op.kind == opIngest && o.ok() {
			ingests++
			edges += ilBatch
		}
	}
	bytesWritten := 0
	for _, s := range writes {
		bytesWritten += s.N
	}
	var ckpt []float64
	for i := 0; i < len(ckStart) && i < len(ckEnd); i++ {
		ckpt = append(ckpt, ms(ckEnd[i].Start.Sub(ckStart[i].Start)))
	}
	t, _ := tail(pre)
	rep.set("serve.pre_sweep_p50_ms", "ms", median(pre))
	rep.set("serve.pre_sweep_p99_ms", "ms", t)
	rep.set("serve.degraded_share", "ratio", ratio(float64(degraded), float64(queries)))
	rep.set("serve.ingest_handler_p50_ms", "ms", median(ingest))
	t, _ = tail(ingest)
	rep.set("serve.ingest_handler_p99_ms", "ms", t)
	t, _ = tail(nonsync)
	rep.set("serve.ingest_nonsync_p99_ms", "ms", t)
	rep.set("serve.ingest_overlap_share", "ratio", overlapShare(ingestSpans))
	warmShare, warmP50 := 0.0, 0.0
	if h, ok := obs.LookupHistogram("serve/warm_ns"); ok && h.Count() > 0 {
		warmShare = float64(h.Sum()) / (float64(wall) * float64(runtime.GOMAXPROCS(0)))
		warmP50 = float64(h.Quantile(0.5)) / 1e6
	}
	rep.set("serve.warm_cpu_share", "ratio", warmShare)
	rep.set("serve.warm_p50_ms", "ms", warmP50)
	rep.set("predict.latent_sweep_p50_ms", "ms", median(latent))
	snapcacheMetrics(rep)
	rep.set("graph.publish_batch_p50_ms", "ms", median(withPub)-median(withoutPub))
	rows, _ := obs.LookupCounter("serve/publish_delta_rows")
	pubs, _ := obs.LookupCounter("serve/snapshots_published")
	rep.set("graph.delta_rows_per_publish", "count", ratio(float64(rows.Value()), float64(pubs.Value())))
	segDur := durationsMS(segSyncs)
	t, _ = tail(segDur)
	rep.set("wal.fsync_p50_ms", "ms", median(segDur))
	rep.set("wal.fsync_p99_ms", "ms", t)
	rep.set("wal.sync_share", "ratio", ratio(float64(syncInIngest), float64(ingestTotal)))
	rep.set("wal.fsyncs_per_batch", "count", ratio(float64(len(segSyncs)), float64(ingests)))
	rep.set("wal.bytes_per_edge", "B", ratio(float64(bytesWritten), float64(edges)))
	rep.set("wal.checkpoints", "count", float64(len(ckEnd)))
	rep.set("wal.checkpoint_p50_ms", "ms", median(ckpt))
	commonTraceMetrics(rep, outs, &acct, cpu0, cpu1, gaps)
}

// within returns the spans starting inside h's interval.
func within(spans []span, h span) []span {
	var out []span
	for _, s := range spans {
		if !s.Start.Before(h.Start) && s.Start.Before(h.End) {
			out = append(out, s)
		}
	}
	return out
}
