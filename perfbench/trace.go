package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"linkpred/internal/graph"
	"linkpred/internal/predict"
	"linkpred/internal/wal"
)

// The traced run records spans from outside the program: it wraps the
// HTTP handlers (Server.Handler, Router.Handler), algorithm resolution
// (Config.Resolve), the router's fan-out client (Config.Client), the WAL
// files (DirStorage.Wrap plus Rename on the storage) and the publish hook
// (Config.OnPublish). A request ID travels in the X-Request-ID header and,
// inside a process, in the request context, which the server hands to the
// resolved algorithm as Options.Ctx.

const ridHeader = "X-Request-ID"

type ridKey struct{}

func withRID(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, ridKey{}, id)
}

func ridFrom(ctx context.Context) uint64 {
	if ctx == nil {
		return 0
	}
	id, _ := ctx.Value(ridKey{}).(uint64)
	return id
}

// Span kinds.
const (
	spHandler   = "handler"     // one HTTP request inside a server or router
	spSweep     = "sweep"       // Algorithm.Predict
	spScore     = "score_sweep" // Algorithm.ScorePairs
	spShardCall = "shard_call"  // one router→shard request, to body close
	spWrite     = "wal_write"
	spSync      = "wal_sync"
	spCkptStart = "ckpt_create" // checkpoint.tmp created
	spCkptEnd   = "ckpt_rename" // checkpoint.tmp renamed into place
	spPublish   = "publish"     // OnPublish: a snapshot became visible
)

// span is one recorded interval. where names the process part (server,
// router, shard0, ...); what the endpoint, algorithm or file.
type span struct {
	RID   uint64    `json:"rid,omitempty"`
	Kind  string    `json:"kind"`
	Where string    `json:"where,omitempty"`
	What  string    `json:"what,omitempty"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	N     int       `json:"n,omitempty"` // k, pairs, bytes or edges
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the spans recorded so far and clears the recorder.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// handler wraps an HTTP handler: a request carrying an ID gets a handler
// span, and the ID rides on in the request context.
func (r *recorder) handler(where string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, _ := strconv.ParseUint(req.Header.Get(ridHeader), 10, 64)
		if id == 0 {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req.WithContext(withRID(req.Context(), id)))
		r.add(span{RID: id, Kind: spHandler, Where: where, What: req.URL.Path, Start: start, End: time.Now()})
	})
}

// resolve is a Config.Resolve that times every sweep of a request with an
// ID.
func (r *recorder) resolve(where string) func(string) (predict.Algorithm, error) {
	return func(name string) (predict.Algorithm, error) {
		a, err := predict.ByName(name)
		if err != nil {
			return nil, err
		}
		return tracedAlg{Algorithm: a, rec: r, where: where}, nil
	}
}

type tracedAlg struct {
	predict.Algorithm
	rec   *recorder
	where string
}

func (t tracedAlg) Predict(g *graph.Graph, k int, opt predict.Options) []predict.Pair {
	start := time.Now()
	out := t.Algorithm.Predict(g, k, opt)
	if id := ridFrom(opt.Ctx); id != 0 {
		t.rec.add(span{RID: id, Kind: spSweep, Where: t.where, What: t.Name(), Start: start, End: time.Now(), N: k})
	}
	return out
}

func (t tracedAlg) ScorePairs(g *graph.Graph, pairs []predict.Pair, opt predict.Options) []float64 {
	start := time.Now()
	out := t.Algorithm.ScorePairs(g, pairs, opt)
	if id := ridFrom(opt.Ctx); id != 0 {
		t.rec.add(span{RID: id, Kind: spScore, Where: t.where, What: t.Name(), Start: start, End: time.Now(), N: len(pairs)})
	}
	return out
}

// transport is the router's fan-out client transport: it forwards the
// request ID to the shard and times each call until its body is closed.
type transport struct {
	base  http.RoundTripper
	rec   *recorder
	where map[string]string // shard host → shard name
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := ridFrom(req.Context())
	if id == 0 {
		return t.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(ridHeader, strconv.FormatUint(id, 10))
	sp := span{RID: id, Kind: spShardCall, Where: t.where[req.URL.Host], What: req.URL.Path, Start: time.Now()}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.End = time.Now()
		t.rec.add(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		sp.End = time.Now()
		t.rec.add(sp)
	}}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// storage wraps a DirStorage: its Wrap hook times every file write and
// fsync, and Rename marks the end of a checkpoint.
type storage struct {
	*wal.DirStorage
	rec *recorder
}

func newTracedStorage(dir string, rec *recorder) (*storage, error) {
	st, err := wal.NewDirStorage(dir)
	if err != nil {
		return nil, err
	}
	st.Wrap = func(name string, f wal.File) wal.File {
		if name == ckptTmp {
			now := time.Now()
			rec.add(span{Kind: spCkptStart, What: name, Start: now, End: now})
		}
		return &tracedFile{File: f, name: name, rec: rec}
	}
	return &storage{DirStorage: st, rec: rec}, nil
}

// ckptTmp is the temporary name the log writes a checkpoint under before
// renaming it into place.
const ckptTmp = "checkpoint.tmp"

func (s *storage) Rename(oldname, newname string) error {
	err := s.DirStorage.Rename(oldname, newname)
	if oldname == ckptTmp {
		now := time.Now()
		s.rec.add(span{Kind: spCkptEnd, What: newname, Start: now, End: now})
	}
	return err
}

type tracedFile struct {
	wal.File
	name string
	rec  *recorder
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.rec.add(span{Kind: spWrite, What: f.name, Start: start, End: time.Now(), N: n})
	return n, err
}

func (f *tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.rec.add(span{Kind: spSync, What: f.name, Start: start, End: time.Now()})
	return err
}

// writeSpans saves a traced run's spans as JSON lines beside the build
// output, for inspection after the run.
func writeSpans(workload string, seed int64, spans []span) (string, error) {
	path := filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// spanIndex groups spans by request ID and kind.
type spanIndex map[uint64]map[string][]span

func index(spans []span) spanIndex {
	ix := spanIndex{}
	for _, s := range spans {
		if s.RID == 0 {
			continue
		}
		m := ix[s.RID]
		if m == nil {
			m = map[string][]span{}
			ix[s.RID] = m
		}
		m[s.Kind] = append(m[s.Kind], s)
	}
	return ix
}

// handlerOf returns the request's handler span at where.
func (ix spanIndex) handlerOf(rid uint64, where string) (span, bool) {
	for _, s := range ix[rid][spHandler] {
		if s.Where == where {
			return s, true
		}
	}
	return span{}, false
}

// union is the length of the union of the intervals, each clipped to
// [lo, hi], and the total length of the parts that fell outside it.
func union(spans []span, lo, hi time.Time) (in, out time.Duration) {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, s := range spans {
		a, b := s.Start, s.End
		if a.Before(lo) {
			out += lo.Sub(a)
			a = lo
		}
		if b.After(hi) {
			out += b.Sub(hi)
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			if i > 0 {
				in += curB.Sub(curA)
			}
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		in += curB.Sub(curA)
	}
	return in, out
}

// accounting sums, over traced requests, the client latency and the part
// of it the stage decomposition fails to cover. A request's latency splits
// into the client gap (due time → handler start, plus handler end →
// response read) and the handler span; the handler span splits into its
// child spans (sweeps, shard calls, fsyncs) and the named gaps between
// them. The sum matches by construction when spans nest, so what remains
// unaccounted is a request with no handler span, a handler reaching
// outside its client interval, or a child reaching outside its handler.
type accounting struct {
	latency, unaccounted time.Duration
}

// tolerance is the stated bound on trace.unaccounted_share.
const tolerance = 0.02

func (a *accounting) add(o *outcome, h span, found bool, children []span) {
	lat := o.latency()
	a.latency += lat
	if !found {
		a.unaccounted += lat
		return
	}
	if d := h.Start.Sub(o.due); d < 0 {
		a.unaccounted -= d
	}
	if d := o.done.Sub(h.End); d < 0 {
		a.unaccounted -= d
	}
	_, outside := union(children, h.Start, h.End)
	a.unaccounted += outside
}

func (a *accounting) share() float64 {
	return ratio(float64(a.unaccounted), float64(a.latency))
}

// overhead compares the median latency of traced requests with that of the
// untraced requests interleaved with them.
func overhead(outs []outcome, kind opKind) float64 {
	var tr, un []float64
	for i := range outs {
		o := &outs[i]
		if o.op.kind != kind || !o.ok() {
			continue
		}
		if o.rid != 0 {
			tr = append(tr, ms(o.latency()))
		} else {
			un = append(un, ms(o.latency()))
		}
	}
	return ratio(median(tr), median(un))
}

// durationsMS lists span durations in milliseconds.
func durationsMS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.dur())
	}
	return out
}
