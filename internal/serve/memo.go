package serve

import (
	"context"
	"sync"

	"linkpred/internal/obs"
	"linkpred/internal/predict"
)

// memoMaxEntries bounds the distinct predictions one snapshot retains. A
// static epoch lives as long as ingest is quiet, and k is client-chosen,
// so without a bound a scan over k would grow the memo without limit.
// Past the bound a new key is swept and answered but not retained.
const memoMaxEntries = 256

// memoKey identifies one ranked top-k on a snapshot: the algorithm that
// actually sweeps (the proxy when the request is degraded), k, and the
// swept source range (ranged=false is the unrestricted sweep).
type memoKey struct {
	alg    string
	k      int
	ranged bool
	lo, hi int
}

// memoEntry is one prediction, complete once done is closed. ok reports
// whether the sweep ran to the end; an entry whose leader was cancelled
// is removed from the memo before done closes, and its waiters retry.
type memoEntry struct {
	done  chan struct{}
	pairs []predict.Pair // read-only once done is closed
	ok    bool
}

// predictMemo memoises the ranked top-k of every /predict answered on one
// snapshot. The answer is a pure function of (snapshot, served algorithm,
// k, swept range), so a repeat costs a lookup instead of a sweep. It lives
// on the Snapshot and dies with it. The zero value is ready to use.
type predictMemo struct {
	mu      sync.Mutex
	entries map[memoKey]*memoEntry
}

// do returns the prediction for key, sweeping at most once per key across
// concurrent callers: the first caller runs sweep under its own ctx, and
// later callers wait on its done channel until it finishes or their own
// ctx expires. swept reports whether this call ran the sweep. A sweep cut
// short by its caller's ctx is never retained, so the next request sweeps
// again; waiters of such a sweep retry, and one of them becomes the
// leader. err is non-nil only when ctx expired.
func (m *predictMemo) do(ctx context.Context, key memoKey, sweep func() []predict.Pair) (pairs []predict.Pair, swept bool, err error) {
	for {
		m.mu.Lock()
		e, found := m.entries[key]
		if !found {
			break // leave m.mu held for the leader's insert below
		}
		m.mu.Unlock()
		memoCount("hit")
		select {
		case <-e.done:
			if e.ok {
				return e.pairs, false, nil
			}
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	var e *memoEntry // nil past the bound: sweep without retaining
	if len(m.entries) < memoMaxEntries {
		if m.entries == nil {
			m.entries = make(map[memoKey]*memoEntry)
		}
		e = &memoEntry{done: make(chan struct{})}
		m.entries[key] = e
	}
	m.mu.Unlock()
	memoCount("miss")
	pairs = sweep()
	err = ctx.Err()
	if e == nil {
		return pairs, true, err
	}
	if err != nil {
		// A partial top-k is not the answer; drop the entry so waiters and
		// later requests sweep again.
		m.mu.Lock()
		delete(m.entries, key)
		m.mu.Unlock()
		close(e.done)
		return nil, true, err
	}
	e.pairs, e.ok = pairs, true
	close(e.done)
	return pairs, true, nil
}

// memoCount advances serve/predict_memo{result="hit"|"miss"}. A hit is
// counted when a request finds its key memoised or in flight, a miss when
// it sweeps; a waiter whose leader was cut short counts again on retry.
func memoCount(result string) {
	if obs.Enabled() {
		obs.GetCounter(`serve/predict_memo{result="` + result + `"}`).Inc()
	}
}
