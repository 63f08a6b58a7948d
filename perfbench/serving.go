package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"sort"
	"time"

	"linkpred/internal/gen"
	"linkpred/internal/graph"
	"linkpred/internal/liveeval"
	"linkpred/internal/obs"
	"linkpred/internal/predict"
	"linkpred/internal/serve"
)

// Algorithm families.
var (
	localAlgs  = []string{"CN", "AA", "RA", "JC", "BAA"}
	latentAlgs = []string{"Katz", "Rescal"}
	// warmAlgs is serve's default Config.WarmAlgorithms.
	warmAlgs = []string{"AA", "BAA", "Katz", "KatzSC", "Rescal"}
	familyOf = map[string]string{
		"CN": "local", "AA": "local", "RA": "local", "JC": "local", "PA": "local",
		"BCN": "local", "BAA": "local", "BRA": "local",
		"SP": "path", "LP": "path",
		"PPR": "walk", "LRW": "walk",
		"Katz": "latent", "KatzSC": "latent", "Rescal": "latent",
	}
)

// serverConfig is linkpredd's default configuration: 2 workers, engine
// workers 1, warm on, live evaluation on, snapshot every 512 edges, the
// default degradation controller, seed 1. With rec set, algorithm
// resolution is traced.
func serverConfig(tr *graph.Trace, rec *recorder, where string) serve.Config {
	cfg := serve.Config{
		SnapshotEvery: 512,
		Workers:       serverWorkers,
		QueueDepth:    256,
		MaxBatch:      16,
		Warm:          true,
		Trace:         tr,
		Degrade:       serve.DegradeConfig{P95: 250 * time.Millisecond, RecoverAfter: 16},
		Eval:          liveeval.New(liveeval.Config{TopK: 128, Window: 1024}),
	}
	cfg.Opt.Seed = 1
	cfg.Opt.Workers = engineWorkers
	if rec != nil {
		cfg.Resolve = rec.resolve(where)
	}
	return cfg
}

// engineOpt is the engine configuration the servers run with, used to
// compute reference answers. Output is identical at any worker count, so
// references use every core.
func engineOpt() predict.Options {
	opt := predict.DefaultOptions()
	opt.Seed = 1
	opt.Workers = 0
	return opt
}

// listener serves h on a loopback port until stop returns.
type listener struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		if err := l.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return l, nil
}

func (l *listener) stop() {
	l.hs.Close()
	<-l.done
}

// renren generates the workload's renren-preset trace.
func renren(seed int64, scale float64) *graph.Trace {
	return gen.MustGenerate(gen.Renren(seed).Scaled(scale))
}

// prefix is the warm-start trace holding the first m edges of tr and the
// nodes that had arrived by then; the rest of tr is the replay.
func prefix(tr *graph.Trace, m int) *graph.Trace {
	last := tr.Edges[m-1].Time
	n := 0
	for n < len(tr.Arrival) && tr.Arrival[n] <= last {
		n++
	}
	return &graph.Trace{
		Name:    tr.Name,
		Arrival: append([]int64(nil), tr.Arrival[:n]...),
		Edges:   append([]graph.Edge(nil), tr.Edges[:m]...),
	}
}

// head is the part of a /predict or /score response the benchmark reads.
type head struct {
	Alg           string `json:"alg"`
	ServedBy      string `json:"served_by"`
	Degraded      bool   `json:"degraded"`
	SnapshotSeq   int64  `json:"snapshot_seq"`
	SnapshotEdges int    `json:"snapshot_edges"`
	Partial       bool   `json:"partial"`
}

// encode renders v exactly as the servers write a response body.
func encode(v any) []byte {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(v)
	return buf.Bytes()
}

// snapInfo identifies the snapshot a reference answer is computed on.
type snapInfo struct {
	g     *graph.Graph
	seq   int64
	edges int
	time  int64
}

// refPredict is the response a server returns for (alg, k) on snap when
// servedBy answered it, with dense IDs mapped to external ones by ext.
func refPredict(snap snapInfo, alg, servedBy string, k int, ext func(graph.NodeID) int64) ([]byte, error) {
	a, err := predict.ByName(servedBy)
	if err != nil {
		return nil, err
	}
	pairs := a.Predict(snap.g, k, engineOpt())
	res := serve.Result{
		Alg: alg, ServedBy: servedBy, Degraded: alg != servedBy,
		SnapshotSeq: snap.seq, SnapshotEdges: snap.edges, SnapshotTime: snap.time,
		Pairs: make([]serve.PairScore, len(pairs)),
	}
	for i, p := range pairs {
		res.Pairs[i] = serve.PairScore{U: ext(p.U), V: ext(p.V), Score: p.Score}
	}
	return encode(res), nil
}

// refScore is the response to a /score of pairs (all between nodes of
// snap, in external IDs mapped to dense ones by dense) answered by
// servedBy.
func refScore(snap snapInfo, alg, servedBy string, pairs [][2]int64, dense func(int64) graph.NodeID) ([]byte, error) {
	a, err := predict.ByName(servedBy)
	if err != nil {
		return nil, err
	}
	ps := make([]predict.Pair, len(pairs))
	for i, p := range pairs {
		ps[i] = predict.Pair{U: dense(p[0]), V: dense(p[1])}
	}
	vals := a.ScorePairs(snap.g, ps, engineOpt())
	res := serve.Result{
		Alg: alg, ServedBy: servedBy, Degraded: alg != servedBy,
		SnapshotSeq: snap.seq, SnapshotEdges: snap.edges, SnapshotTime: snap.time,
		Pairs: make([]serve.PairScore, len(pairs)),
	}
	for i, p := range pairs {
		res.Pairs[i] = serve.PairScore{U: p[0], V: p[1], Score: vals[i]}
	}
	return encode(res), nil
}

// scoreBatch is one pre-encoded /score request.
type scoreBatch struct {
	alg   string
	pairs [][2]int64
	body  []byte
}

// scorePool draws per algorithm `per` batches of 64 pairs among nodes of
// g: half are two hops apart (the pairs a local metric scores above
// zero), half uniform. IDs are dense IDs, which equal the external ones
// of a warm-start trace.
func scorePool(seed int64, g *graph.Graph, algs []string, per int) []scoreBatch {
	rng := rand.New(rand.NewSource(seed ^ 0x5c0e))
	n := g.NumNodes()
	pool := make([]scoreBatch, 0, len(algs)*per)
	for _, alg := range algs {
		for b := 0; b < per; b++ {
			pairs := make([][2]int64, 0, 64)
			for len(pairs) < 64 {
				u := graph.NodeID(rng.Intn(n))
				v := graph.NodeID(rng.Intn(n))
				if len(pairs)%2 == 0 {
					if nb := g.Neighbors(u); len(nb) > 0 {
						w := nb[rng.Intn(len(nb))]
						if nw := g.Neighbors(w); len(nw) > 0 {
							v = nw[rng.Intn(len(nw))]
						}
					}
				}
				if u != v {
					pairs = append(pairs, [2]int64{int64(u), int64(v)})
				}
			}
			body := encode(map[string]any{"alg": alg, "pairs": pairs})
			pool = append(pool, scoreBatch{alg: alg, pairs: pairs, body: body})
		}
	}
	return pool
}

// ingestBatches encodes events as /ingest bodies of size edges each.
func ingestBatches(edges []graph.Edge, size int) ([][]serve.Event, [][]byte) {
	var evs [][]serve.Event
	var bodies [][]byte
	for i := 0; i+size <= len(edges); i += size {
		b := make([]serve.Event, size)
		for j, e := range edges[i : i+size] {
			b[j] = serve.Event{U: int64(e.U), V: int64(e.V), T: e.Time}
		}
		evs = append(evs, b)
		bodies = append(bodies, encode(map[string]any{"events": b}))
	}
	return evs, bodies
}

// replay hands out held-out ingest batches in dispatch order.
type replay struct {
	next, available int
}

// assign is a loadgen.assign for streams that replay ingest batches.
func (r *replay) assign(o *op) bool {
	if o.kind != opIngest {
		return true
	}
	if r.next >= r.available {
		return false
	}
	o.item = r.next
	r.next++
	return true
}

// warmUp sends one /predict per algorithm, and a /score where scoreBody
// has a batch for it, so every lazily built artifact exists before timing
// starts.
func warmUp(base string, algs []string, scoreBody func(alg string) []byte) error {
	c := &http.Client{Timeout: 60 * time.Second}
	defer c.CloseIdleConnections()
	for _, alg := range algs {
		resp, err := c.Get(fmt.Sprintf("%s/predict?alg=%s&k=50", base, alg))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("warm-up /predict %s: status %d", alg, resp.StatusCode)
		}
		body := scoreBody(alg)
		if body == nil {
			continue
		}
		resp, err = c.Post(base+"/score", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("warm-up /score %s: status %d", alg, resp.StatusCode)
		}
	}
	return nil
}

// mirror replays ingest batches in applied order with the servers' own ID
// rule — dense IDs assigned in first-seen order, the warm-start nodes
// keeping theirs — so reference snapshots and external IDs can be rebuilt
// outside the servers.
type mirror struct {
	tr    *graph.Trace
	remap map[int64]graph.NodeID
	rev   []int64
}

func newMirror(warm *graph.Trace) *mirror {
	m := &mirror{
		tr: &graph.Trace{
			Name:    warm.Name,
			Arrival: append([]int64(nil), warm.Arrival...),
			Edges:   append([]graph.Edge(nil), warm.Edges...),
		},
		remap: make(map[int64]graph.NodeID, len(warm.Arrival)),
	}
	for i := range warm.Arrival {
		m.remap[int64(i)] = graph.NodeID(i)
		m.rev = append(m.rev, int64(i))
	}
	return m
}

func (m *mirror) dense(id int64) graph.NodeID {
	if d, ok := m.remap[id]; ok {
		return d
	}
	d := graph.NodeID(len(m.rev))
	m.remap[id] = d
	m.rev = append(m.rev, id)
	return d
}

func (m *mirror) apply(evs []serve.Event) error {
	for _, ev := range evs {
		if _, err := m.tr.Append(m.dense(ev.U), m.dense(ev.V), ev.T); err != nil {
			return err
		}
	}
	return nil
}

func (m *mirror) ext(d graph.NodeID) int64 { return m.rev[d] }

// latency prints the median and tail latency of the successful requests
// of kind and returns the median in milliseconds.
func latency(outs []outcome, info func(string, ...any), kind opKind, name string) float64 {
	st := stats(outs, kind)
	t, level := tail(st.lat)
	info("latency %s: n=%d failed=%d p50=%.3fms tail=p%.1f(%.3fms, %d samples beyond)",
		name, st.n, st.failed, median(st.lat), 100*level, t, minTail)
	byAlg := map[string][]float64{}
	for i := range outs {
		if o := &outs[i]; o.op.kind == kind && o.ok() && o.op.alg != "" {
			key := fmt.Sprintf("%s/%d", o.op.alg, o.op.k)
			byAlg[key] = append(byAlg[key], ms(o.latency()))
		}
	}
	keys := make([]string, 0, len(byAlg))
	for k := range byAlg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		info("latency %s %s: n=%d p50=%.3fms", name, k, len(byAlg[k]), median(byAlg[k]))
	}
	return median(st.lat)
}

// repeatShare is the share of successful /predict responses whose (epoch,
// alg, k) an earlier response already had: the input property a per-epoch
// memo depends on.
func repeatShare(outs []outcome) float64 {
	seen := map[string]bool{}
	n, rep := 0, 0
	for i := range outs {
		o := &outs[i]
		if o.op.kind != opPredict || !o.ok() {
			continue
		}
		var h head
		if json.Unmarshal(o.body, &h) != nil {
			continue
		}
		key := fmt.Sprintf("%d/%s/%d", h.SnapshotSeq, o.op.alg, o.op.k)
		n++
		if seen[key] {
			rep++
		}
		seen[key] = true
	}
	return ratio(float64(rep), float64(n))
}

// settleWarm waits until every published snapshot's warm goroutine has
// finished, read from the program's own telemetry (one serve/warm_ns
// observation per serve/snapshots_published), for at most a minute.
func settleWarm() {
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		pubs, _ := obs.LookupCounter("serve/snapshots_published")
		warm, _ := obs.LookupHistogram("serve/warm_ns")
		if warm == nil || warm.Count() >= pubs.Value() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// hitRatio is snapcache's hit ratio since the last obs reset.
func hitRatio() float64 {
	hits, _ := obs.LookupCounter("snapcache/hits")
	misses, _ := obs.LookupCounter("snapcache/misses")
	h, m := float64(hits.Value()), float64(misses.Value())
	return ratio(h, h+m)
}

// snapcacheMetrics reads the program's own snapcache telemetry.
func snapcacheMetrics(rep *report) {
	rep.set("snapcache.hit_ratio", "ratio", hitRatio())
	if hist, ok := obs.LookupHistogram("snapcache/build_ns"); ok && hist.Count() > 0 {
		rep.set("snapcache.build_p50_ms", "ms", float64(hist.Quantile(0.5))/1e6)
	} else {
		rep.set("snapcache.build_p50_ms", "ms", 0)
	}
}

// commonTraceMetrics fills the metrics every traced serving run reports.
func commonTraceMetrics(rep *report, outs []outcome, acct *accounting, cpu0, cpu1 cpuSample, gaps []float64) {
	rep.set("serve.client_gap_p50_ms", "ms", median(gaps))
	rep.set("serve.predict_repeat_share", "ratio", repeatShare(outs))
	rep.set("runtime.gc_cpu_share", "ratio", gcShare(cpu0, cpu1))
	lt, _ := tail(stats(outs).late)
	rep.set("loadgen.late_p99_ms", "ms", lt)
	rep.set("trace.overhead_ratio", "ratio", overhead(outs, opPredict))
	rep.set("trace.unaccounted_share", "ratio", acct.share())
}

// countFailed counts failed requests.
func countFailed(outs []outcome) int {
	n := 0
	for i := range outs {
		if !outs[i].ok() {
			n++
		}
	}
	return n
}

// phaseShare is the part of a run the fixed-rate phase takes; the burst
// after it takes eight to fifteen seconds at today's speed.
const phaseShare = 0.55

// burstSpec is the closed-loop burst whose completion rate is a serving
// workload's max_rate_rps: about n requests of the given kinds, in the
// base mix's proportions, sent back to back from workers clients.
type burstSpec struct {
	kinds   []opKind
	n       int
	workers int
}

// measure runs a serving workload's untraced measurement: the fixed-rate
// phase at the base mix, whose outcomes give the latency metrics, then the
// burst. It returns the phase's outcomes as a prefix of all.
func measure(cfg runConfig, g *loadgen, base []stream, b burstSpec) (phase, all []outcome, rate float64, err error) {
	if phase, err = fixedPhase(cfg, g, base); err != nil {
		return nil, nil, 0, err
	}
	// The burst starts on an idle server: the warm builds of the phase's
	// publishes have finished.
	settleWarm()
	var streams []stream
	total := 0.0
	for _, s := range base {
		if slices.Contains(b.kinds, s.kind) {
			streams = append(streams, s)
			total += s.rate
		}
	}
	n := float64(b.n) * min(cfg.scale, 1)
	ops := schedule(cfg.seed, 1, time.Duration(n/total*float64(time.Second)), streams)
	burst, rate, exhausted := g.burst(ops, b.workers)
	if exhausted {
		return nil, nil, 0, fmt.Errorf("the inputs cannot cover the burst")
	}
	cfg.info("burst %d requests from %d clients at %.1f/s", len(burst), b.workers, rate)
	// Per quarter of the burst, its rate and slowest request: a stall
	// shows as a slow quarter.
	if q := len(burst) / 4; q > 0 {
		for i := range 4 {
			part := burst[i*q : (i+1)*q]
			var slowest time.Duration
			for _, o := range part {
				slowest = max(slowest, o.done.Sub(o.sent))
			}
			cfg.info("burst quarter %d: %.1f/s, slowest %.1fms", i+1,
				float64(q)/part[q-1].done.Sub(part[0].sent).Seconds(), ms(slowest))
		}
	}
	return phase, append(phase[:len(phase):len(phase)], burst...), rate, nil
}

// fixedPhase runs the untraced fixed-rate phase.
func fixedPhase(cfg runConfig, g *loadgen, base []stream) ([]outcome, error) {
	outs, exhausted := g.run(time.Now().Add(10*time.Millisecond), phaseOps(cfg, base))
	if exhausted {
		return nil, fmt.Errorf("inputs cannot cover the measured phase")
	}
	return outs, nil
}

// phaseOps schedules the fixed-rate phase.
func phaseOps(cfg runConfig, base []stream) []op {
	return schedule(cfg.seed, 0, time.Duration(phaseShare*float64(cfg.seconds)), base)
}

// tracedPhase runs the fixed-rate phase of a traced run, with every
// request but each second /predict carrying a request ID.
func tracedPhase(cfg runConfig, g *loadgen, base []stream) ([]outcome, time.Duration, error) {
	ops := phaseOps(cfg, base)
	g.untracedEvery = 2
	obs.Reset()
	t0 := time.Now()
	outs, exhausted := g.run(t0.Add(10*time.Millisecond), ops)
	if exhausted {
		return nil, 0, fmt.Errorf("inputs cannot cover the measured phase")
	}
	return outs, time.Since(t0), nil
}
