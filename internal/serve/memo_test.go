package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"linkpred/internal/graph"
	"linkpred/internal/obs"
	"linkpred/internal/predict"
)

// memoQuery is one /predict the memo property test repeats.
type memoQuery struct {
	alg           string
	k             int
	shard, shards int
}

// memoReference is the response a memo-free server returns for q on snap:
// a fresh sweep of the served algorithm over the same source range, with
// dense IDs mapped to external ones by ext.
func memoReference(t *testing.T, snap *Snapshot, q memoQuery, served string, ext []int64) []byte {
	t.Helper()
	opt := predict.DefaultOptions()
	opt.Workers = 3 // output is worker-invariant; differ from every server
	res := Result{
		Alg: q.alg, ServedBy: served, Degraded: served != q.alg,
		SnapshotSeq: snap.Seq, SnapshotEdges: snap.Edges, SnapshotTime: snap.Time,
	}
	if q.shards > 1 {
		r := predict.WeightedSourceRangesFor(snap.Graph, q.shards, predict.CostModelFor(q.alg))[q.shard]
		opt.SourceRange = &r
		res.SnapshotNodes = snap.Graph.NumNodes()
		res.ShardRange = &[2]int{r.Lo, r.Hi}
	}
	pairs := mustAlg(t, served).Predict(snap.Graph, q.k, opt)
	res.Pairs = make([]PairScore, len(pairs))
	for i, p := range pairs {
		res.Pairs[i] = PairScore{U: ext[p.U], V: ext[p.V], Score: p.Score}
		if q.shards > 1 {
			res.Pairs[i].DU, res.Pairs[i].DV = p.U, p.V
		}
	}
	b, err := json.Marshal(&res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPredictMemoProperty drives a random ingest trace with cadence and
// explicit publishes, and after every ingest chunk fires a random set of
// full, shard-restricted and degraded /predict queries, each three times
// concurrently. Every response — the sweep that filled the memo and every
// repeat answered from it — must be byte-identical to a fresh sweep on the
// snapshot it names, at engine workers 1, 2, 4 and 7 (New clamps the
// engine workers to GOMAXPROCS). Latent algorithms always degrade here (a
// 1ns p95 limit trips on every observation), so degraded answers share the
// proxy's memo entries with direct proxy requests.
func TestPredictMemoProperty(t *testing.T) {
	obs.Enable(true)
	obs.Reset()
	t.Cleanup(func() { obs.Enable(false) })

	rng := rand.New(rand.NewSource(12))
	pool := make([]int64, 160)
	for i := range pool {
		pool[i] = rng.Int63n(1 << 40)
	}
	var events []Event
	for i := 0; len(events) < 900; i++ {
		hi := min(len(pool), 8+i/6) // the network grows over the trace
		u, v := pool[rng.Intn(hi)], pool[rng.Intn(hi)]
		if u != v {
			events = append(events, Event{U: u, V: v, T: int64(i)})
		}
	}
	// The server assigns dense IDs in first-seen order of each event's
	// endpoints, u before v.
	var ext []int64
	seen := map[int64]bool{}
	for _, ev := range events {
		for _, id := range []int64{ev.U, ev.V} {
			if !seen[id] {
				seen[id] = true
				ext = append(ext, id)
			}
		}
	}
	var chunks []int
	for at := 0; at < len(events); {
		n := min(len(events)-at, 20+rng.Intn(60))
		chunks = append(chunks, n)
		at += n
	}
	catalog := []memoQuery{
		{alg: "CN", k: 5}, {alg: "CN", k: 20}, {alg: "AA", k: 20}, {alg: "JC", k: 10},
		{alg: "BAA", k: 10}, {alg: "Katz", k: 20}, {alg: "Rescal", k: 5}, {alg: "KatzSC", k: 10},
		{alg: "CN", k: 20, shard: 0, shards: 2}, {alg: "CN", k: 20, shard: 1, shards: 2},
		{alg: "AA", k: 10, shard: 2, shards: 3}, {alg: "BAA", k: 10, shard: 1, shards: 3},
		{alg: "Katz", k: 20, shard: 0, shards: 2}, {alg: "Katz", k: 20, shard: 1, shards: 2},
	}

	for _, workers := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var pubMu sync.Mutex
			published := map[int64]*Snapshot{}
			opt := predict.DefaultOptions()
			opt.Workers = workers
			s := newTestServer(t, Config{
				SnapshotEvery: 97,
				Workers:       4,
				Opt:           opt,
				Degrade:       DegradeConfig{P95: time.Nanosecond, Window: 1},
				OnPublish: func(sn *Snapshot) {
					pubMu.Lock()
					published[sn.Seq] = sn
					pubMu.Unlock()
				},
			})
			qrng := rand.New(rand.NewSource(int64(workers)))
			at := 0
			for ci, n := range chunks {
				if _, _, err := s.Ingest(events[at : at+n]); err != nil {
					t.Fatal(err)
				}
				at += n
				if ci%3 == 2 {
					s.Flush()
				}
				if ci == 0 {
					// Trip the controller so every latent request degrades.
					if _, err := s.Predict(context.Background(), "CN", 1); err != nil {
						t.Fatal(err)
					}
				}
				var qs []memoQuery
				for _, i := range qrng.Perm(len(catalog))[:5] {
					qs = append(qs, catalog[i], catalog[i], catalog[i])
				}
				qrng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
				results := make([]*Result, len(qs))
				var wg sync.WaitGroup
				for i, q := range qs {
					wg.Add(1)
					go func(i int, q memoQuery) {
						defer wg.Done()
						res, err := s.PredictShard(context.Background(), q.alg, q.k, q.shard, q.shards)
						if err != nil {
							t.Errorf("%+v: %v", q, err)
							return
						}
						results[i] = res
					}(i, q)
				}
				wg.Wait()
				if t.Failed() {
					return
				}
				for i, q := range qs {
					res := results[i]
					pubMu.Lock()
					snap := published[res.SnapshotSeq]
					pubMu.Unlock()
					if snap == nil {
						t.Fatalf("%+v: response names unpublished seq %d", q, res.SnapshotSeq)
					}
					if _, latent := latentProxy[q.alg]; latent != res.Degraded {
						t.Fatalf("%+v: degraded=%v", q, res.Degraded)
					}
					got, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					if want := memoReference(t, snap, q, res.ServedBy, ext); string(got) != string(want) {
						t.Fatalf("chunk %d %+v on seq %d:\n got %s\nwant %s", ci, q, snap.Seq, got, want)
					}
				}
			}
		})
	}
	if obs.GetCounter(`serve/predict_memo{result="hit"}`).Value() == 0 {
		t.Fatal("no repeated query was answered from the memo")
	}
}

// countingAlg counts the sweeps an algorithm actually runs. With gate
// set, each sweep signals started and then parks until gate closes.
type countingAlg struct {
	predict.Algorithm
	calls   atomic.Int32
	started chan struct{}
	gate    chan struct{}
}

func (c *countingAlg) Predict(g *graph.Graph, k int, opt predict.Options) []predict.Pair {
	c.calls.Add(1)
	if c.gate != nil {
		c.started <- struct{}{}
		<-c.gate
	}
	return c.Algorithm.Predict(g, k, opt)
}

// countingServer serves a tiny path graph with name resolved to alg.
func countingServer(t *testing.T, workers int, name string, alg predict.Algorithm) *Server {
	t.Helper()
	s := newTestServer(t, Config{
		Workers: workers,
		Resolve: func(n string) (predict.Algorithm, error) {
			if n == name {
				return alg, nil
			}
			return predict.ByName(n)
		},
	})
	if _, _, err := s.Ingest([]Event{{U: 0, V: 1, T: 1}, {U: 1, V: 2, T: 2}, {U: 2, V: 3, T: 3}}); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	return s
}

// TestPredictMemoSingleFlight sends N identical requests while the first
// one's sweep is parked: all N are answered by that one sweep, and the
// memo counters record one miss and N-1 hits.
func TestPredictMemoSingleFlight(t *testing.T) {
	obs.Enable(true)
	obs.Reset()
	t.Cleanup(func() { obs.Enable(false) })
	const n = 8
	alg := &countingAlg{Algorithm: predict.CN, started: make(chan struct{}, n), gate: make(chan struct{})}
	s := countingServer(t, n, "CN", alg)

	results := make(chan *Result, n)
	ask := func() {
		res, err := s.Predict(context.Background(), "CN", 5)
		if err != nil {
			t.Error(err)
		}
		results <- res
	}
	go ask()
	<-alg.started // the leader is parked inside its sweep
	for i := 1; i < n; i++ {
		go ask()
	}
	// Release the sweep once every follower has joined the in-flight entry
	// (each join counts a hit).
	hits := obs.GetCounter(`serve/predict_memo{result="hit"}`)
	deadline := time.Now().Add(5 * time.Second)
	for hits.Value() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d followers joined the in-flight sweep", hits.Value(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(alg.gate)

	var first *Result
	for i := 0; i < n; i++ {
		res := <-results
		if res == nil {
			t.FailNow()
		}
		if first == nil {
			first = res
		} else if !reflect.DeepEqual(res, first) {
			t.Fatalf("answers differ: %+v vs %+v", res, first)
		}
	}
	if got := alg.calls.Load(); got != 1 {
		t.Fatalf("%d identical concurrent requests ran %d sweeps, want 1", n, got)
	}
	if len(first.Pairs) == 0 {
		t.Fatal("empty answer")
	}
	if hit, miss := obs.GetCounter(`serve/predict_memo{result="hit"}`).Value(), obs.GetCounter(`serve/predict_memo{result="miss"}`).Value(); hit != n-1 || miss != 1 {
		t.Fatalf("memo counters hit=%d miss=%d, want %d/1", hit, miss, n-1)
	}
}

// memoLen is the number of entries held by snap's memo.
func memoLen(snap *Snapshot) int {
	snap.memo.mu.Lock()
	defer snap.memo.mu.Unlock()
	return len(snap.memo.entries)
}

// TestPredictMemoCancellation pins the memo's deadline behaviour with a
// chunked scorer that honours Options.Ctx between 10ms chunks.
func TestPredictMemoCancellation(t *testing.T) {
	full := []PairScore{{U: 0, V: 1, Score: 1}}
	wantFull := func(t *testing.T, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("err = %v, want the full answer", err)
		}
		if fmt.Sprint(res.Pairs) != fmt.Sprint(full) {
			t.Fatalf("pairs = %v, want %v", res.Pairs, full)
		}
	}
	newCase := func(t *testing.T) (*Server, *countingAlg) {
		alg := &countingAlg{Algorithm: &chunkAlg{chunk: 10 * time.Millisecond, chunks: 50}}
		return countingServer(t, 2, "Chunky", alg), alg
	}
	// waitSweeping blocks until alg has started n sweeps.
	waitSweeping := func(t *testing.T, alg *countingAlg, n int32) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for alg.calls.Load() < n {
			if time.Now().After(deadline) {
				t.Fatal("sweep never started")
			}
			time.Sleep(time.Millisecond)
		}
	}

	t.Run("cut leader leaves nothing memoised", func(t *testing.T) {
		s, alg := newCase(t)
		ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
		defer cancel()
		if _, err := s.Predict(ctx, "Chunky", 5); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want DeadlineExceeded", err)
		}
		if got := memoLen(s.Snapshot()); got != 0 {
			t.Fatalf("cut sweep left %d memo entries", got)
		}
		res, err := s.Predict(context.Background(), "Chunky", 5)
		wantFull(t, res, err)
		if got := alg.calls.Load(); got != 2 {
			t.Fatalf("%d sweeps, want 2 (the cut one and its retry)", got)
		}
		if got := memoLen(s.Snapshot()); got != 1 {
			t.Fatalf("%d memo entries after the full sweep, want 1", got)
		}
	})

	t.Run("waiter deadline does not wait out the leader", func(t *testing.T) {
		s, alg := newCase(t)
		leader := make(chan error, 1)
		go func() {
			res, err := s.Predict(context.Background(), "Chunky", 5)
			if err == nil && fmt.Sprint(res.Pairs) != fmt.Sprint(full) {
				err = fmt.Errorf("leader pairs = %v", res.Pairs)
			}
			leader <- err
		}()
		waitSweeping(t, alg, 1)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		start := time.Now()
		if _, err := s.Predict(ctx, "Chunky", 5); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("waiter err = %v, want DeadlineExceeded", err)
		}
		if el := time.Since(start); el > 30*time.Millisecond+250*time.Millisecond {
			t.Fatalf("waiter took %v; it waited out the 500ms sweep", el)
		}
		if err := <-leader; err != nil {
			t.Fatal(err)
		}
		if got := alg.calls.Load(); got != 1 {
			t.Fatalf("%d sweeps, want 1", got)
		}
	})

	t.Run("waiter of a cut leader sweeps again", func(t *testing.T) {
		s, alg := newCase(t)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		leader := make(chan error, 1)
		go func() {
			_, err := s.Predict(ctx, "Chunky", 5)
			leader <- err
		}()
		waitSweeping(t, alg, 1)
		res, err := s.Predict(context.Background(), "Chunky", 5)
		wantFull(t, res, err)
		if err := <-leader; !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("leader err = %v, want DeadlineExceeded", err)
		}
		if got := alg.calls.Load(); got != 2 {
			t.Fatalf("%d sweeps, want 2 (the cut leader and the waiter's retry)", got)
		}
	})
}

// TestPredictMemoBound checks that a snapshot retains at most
// memoMaxEntries predictions: a new key past the bound is swept on every
// request, while retained keys keep hitting.
func TestPredictMemoBound(t *testing.T) {
	var m predictMemo
	sweeps := 0
	sweep := func() []predict.Pair { sweeps++; return []predict.Pair{{U: 0, V: 1}} }
	for k := 1; k <= memoMaxEntries+1; k++ {
		for rep := 0; rep < 2; rep++ {
			if _, _, err := m.do(context.Background(), memoKey{alg: "CN", k: k}, sweep); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(m.entries) != memoMaxEntries {
		t.Fatalf("%d entries, want the bound %d", len(m.entries), memoMaxEntries)
	}
	if want := memoMaxEntries + 2; sweeps != want {
		t.Fatalf("%d sweeps, want %d (one per retained key, two for the key past the bound)", sweeps, want)
	}
	if _, swept, _ := m.do(context.Background(), memoKey{alg: "CN", k: 1}, sweep); swept {
		t.Fatal("a retained key swept again")
	}
}
