package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// outcome is one issued request as the client saw it.
type outcome struct {
	op     op
	rid    uint64 // request ID sent in X-Request-ID (0 = untraced)
	due    time.Time
	sent   time.Time
	done   time.Time
	status int
	body   []byte
	err    error
}

// latency is the client latency, timed from the due time so that a stall
// also charges the requests queued behind it.
func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

func (o *outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// loadgen issues a workload's requests open-loop over at most conns
// HTTP/1.1 connections to one base URL; requests beyond them wait for a
// free connection, and that wait counts in their latency.
type loadgen struct {
	base   string
	client *http.Client
	// writes, when set, carries /ingest and /healthz on a connection of
	// their own (see splitWrites).
	writes *http.Client
	// body returns the encoded request body of a score or ingest op.
	body func(op) []byte
	// assign, when set, gives an op its item as it is dispatched (the
	// next held-out ingest batch), or reports false when the inputs are
	// exhausted; dispatching then stops.
	assign func(*op) bool
	// untracedEvery > 0 sends a request ID with every request except each
	// n-th /predict: those form the untraced baseline trace.overhead_ratio
	// compares against. 0 sends none.
	untracedEvery int
	nextRID       uint64
	predicts      int
}

func newLoadgen(base string, body func(op) []byte) *loadgen {
	return &loadgen{base: base, body: body, client: newClient(conns)}
}

func newClient(n int) *http.Client {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}
	return &http.Client{Transport: tr, Timeout: reqTimeout}
}

// splitWrites gives /ingest and /healthz one of the connections and the
// queries the other, so that a write never waits on the client behind a
// sweep that takes fifty times longer than its own handling.
func (g *loadgen) splitWrites() {
	g.client, g.writes = newClient(conns-1), newClient(1)
}

func (g *loadgen) close() {
	g.client.CloseIdleConnections()
	if g.writes != nil {
		g.writes.CloseIdleConnections()
	}
}

// run sends ops open-loop: each op is dispatched at start+due in its own
// goroutine, whether or not earlier ones completed; the transport queues
// requests beyond its connection cap. It returns when all sent have
// completed, and whether the inputs ran out before every op was sent.
func (g *loadgen) run(start time.Time, ops []op) ([]outcome, bool) {
	out := make([]outcome, len(ops))
	var wg sync.WaitGroup
	exhausted := false
	for i := range ops {
		o := &out[i]
		o.op = ops[i]
		if g.assign != nil && !g.assign(&o.op) {
			out, exhausted = out[:i], true
			break
		}
		o.due = start.Add(ops[i].due)
		if g.untracedEvery > 0 {
			g.nextRID++
			o.rid = g.nextRID
			if o.op.kind == opPredict {
				g.predicts++
				if g.predicts%g.untracedEvery == 0 {
					o.rid = 0
				}
			}
		}
		if w := time.Until(o.due); w > 0 {
			time.Sleep(w)
		}
		o.sent = time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.do(o)
		}()
	}
	wg.Wait()
	return out, exhausted
}

// burst sends ops in order from workers goroutines, each sending its
// next op as soon as its previous one completed: a closed loop that keeps
// the server as busy as that many clients can, with no request waiting in
// the client. It returns the outcomes, the rate they completed at, and
// whether the inputs ran out first.
func (g *loadgen) burst(ops []op, workers int) ([]outcome, float64, bool) {
	out := make([]outcome, len(ops))
	var mu sync.Mutex
	next, exhausted := 0, false
	take := func() *outcome {
		mu.Lock()
		defer mu.Unlock()
		if exhausted || next == len(ops) {
			return nil
		}
		o := &out[next]
		o.op = ops[next]
		if g.assign != nil && !g.assign(&o.op) {
			exhausted = true
			return nil
		}
		next++
		return o
	}
	start := time.Now()
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := take(); o != nil; o = take() {
				o.due = time.Now()
				o.sent = o.due
				g.do(o)
			}
		}()
	}
	wg.Wait()
	return out[:next], float64(next) / time.Since(start).Seconds(), exhausted
}

func (g *loadgen) do(o *outcome) {
	defer func() { o.done = time.Now() }()
	var req *http.Request
	var err error
	switch o.op.kind {
	case opPredict:
		req, err = http.NewRequestWithContext(context.Background(), http.MethodGet,
			fmt.Sprintf("%s/predict?alg=%s&k=%d", g.base, o.op.alg, o.op.k), nil)
	case opHealth:
		req, err = http.NewRequestWithContext(context.Background(), http.MethodGet, g.base+"/healthz", nil)
	default:
		req, err = http.NewRequestWithContext(context.Background(), http.MethodPost,
			g.base+"/"+o.op.kind.String(), bytes.NewReader(g.body(o.op)))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		o.err = err
		return
	}
	if o.rid != 0 {
		req.Header.Set(ridHeader, strconv.FormatUint(o.rid, 10))
	}
	c := g.client
	if g.writes != nil && (o.op.kind == opIngest || o.op.kind == opHealth) {
		c = g.writes
	}
	resp, err := c.Do(req)
	if err != nil {
		o.err = err
		return
	}
	o.body, o.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.status = resp.StatusCode
}

// phaseStats summarizes a set of outcomes.
type phaseStats struct {
	n, failed int
	lat       []float64 // client latency in ms of successful requests
	late      []float64 // dispatch lateness in ms
}

func stats(outs []outcome, kinds ...opKind) phaseStats {
	var s phaseStats
	for i := range outs {
		o := &outs[i]
		match := len(kinds) == 0
		for _, k := range kinds {
			match = match || o.op.kind == k
		}
		if !match {
			continue
		}
		s.n++
		s.late = append(s.late, ms(o.sent.Sub(o.due)))
		if !o.ok() {
			s.failed++
			continue
		}
		s.lat = append(s.lat, ms(o.latency()))
	}
	return s
}
