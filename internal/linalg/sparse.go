package linalg

import (
	"math/rand"
	"time"

	"linkpred/internal/graph"
	"linkpred/internal/obs"
	"linkpred/internal/par"
)

// The sparse operand of every product here is a snapshot's adjacency
// matrix, read straight from its sorted rows: A[i][j] = 1 iff j is in
// g.Neighbors(i). Rows are visited in ascending neighbor order, so each
// output row accumulates in one fixed order whatever the worker count.

// MulVec computes y = A x across workers goroutines, where A is g's
// adjacency matrix. y must have length g.NumNodes() and is overwritten.
// Each output row is owned by exactly one worker and accumulates in the
// same neighbor order as a serial run, so the result is bit-identical at
// any worker count.
func MulVec(g *graph.Graph, x, y []float64, workers int) {
	par.ShardRange(g.NumNodes(), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			var s float64
			for _, v := range g.Neighbors(graph.NodeID(i)) {
				s += x[v]
			}
			y[i] = s
		}
	})
}

// mulDenseRange computes rows [lo, hi) of Y = A X.
func mulDenseRange(g *graph.Graph, x, y *Dense, lo, hi int) {
	r := x.Cols
	for i := lo; i < hi; i++ {
		yrow := y.Row(i)
		for j := 0; j < r; j++ {
			yrow[j] = 0
		}
		for _, v := range g.Neighbors(graph.NodeID(i)) {
			xrow := x.Row(int(v))
			for j := 0; j < r; j++ {
				yrow[j] += xrow[j]
			}
		}
	}
}

// MulDense computes Y = A X for g's adjacency matrix A and a dense n x r
// matrix X across workers goroutines, overwriting Y. Row ownership keeps
// the per-row accumulation order identical to a serial run, so the result
// is bit-identical at any worker count.
func MulDense(g *graph.Graph, x, y *Dense, workers int) {
	var start time.Time
	track := obs.Enabled()
	if track {
		start = time.Now()
	}
	par.ShardRange(g.NumNodes(), workers, func(_, lo, hi int) { mulDenseRange(g, x, y, lo, hi) })
	if track {
		obs.GetHistogram("linalg/mul_dense_ns").Observe(time.Since(start).Nanoseconds())
	}
}

// transposeInto writes src^T into dst; shapes must already agree.
func transposeInto(dst, src *Dense) {
	for i := 0; i < src.Rows; i++ {
		row := src.Row(i)
		for j, v := range row {
			dst.Data[j*dst.Cols+i] = v
		}
	}
}

// TopEig approximates the r dominant (largest magnitude) eigenpairs of g's
// adjacency matrix using subspace iteration with Rayleigh-Ritz extraction,
// spreading the sparse multiplies and the Ritz projection over workers
// goroutines. Eigenvalues are returned in descending order of signed value;
// the i-th column of vecs is the eigenvector for vals[i].
//
// Internally the iterate basis lives in transposed r x n form so each basis
// vector is a contiguous row during orthonormalization and projection; the
// random initialization and every float operation replay the historical
// n x r element order, so results are bit-identical to the original serial
// column-major implementation at any worker count.
func TopEig(g *graph.Graph, r, iters int, seed int64, workers int) (vals []float64, vecs *Dense) {
	n := g.NumNodes()
	if r > n {
		r = n
	}
	if r <= 0 {
		return nil, NewDense(n, 0)
	}
	var startAll time.Time
	track := obs.Enabled()
	if track {
		startAll = time.Now()
	}
	rng := rand.New(rand.NewSource(seed))
	qt := NewDense(r, n) // basis vectors as rows
	// Draw in the element order of the historical row-major n x r fill so
	// the starting subspace (and therefore every downstream float) matches
	// the original implementation exactly.
	for i := 0; i < n; i++ {
		for j := 0; j < r; j++ {
			qt.Data[j*n+i] = rng.NormFloat64()
		}
	}
	qrRows(qt, rng)
	q := NewDense(n, r)
	y := NewDense(n, r)
	for it := 0; it < iters; it++ {
		transposeInto(q, qt)
		MulDense(g, q, y, workers)
		transposeInto(qt, y)
		qrRows(qt, rng)
	}
	// Rayleigh-Ritz: T = Q^T A Q, then rotate Q by T's eigenvectors.
	transposeInto(q, qt)
	MulDense(g, q, y, workers) // y = A Q
	yt := NewDense(r, n)
	transposeInto(yt, y)
	t := NewDense(r, r)
	par.ShardRangeMin(r, workers, 2, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			qrow := qt.Row(i)
			trow := t.Row(i)
			for j := 0; j < r; j++ {
				trow[j] = Dot(qrow, yt.Row(j))
			}
		}
	})
	// Symmetrize against round-off before Jacobi.
	for i := 0; i < r; i++ {
		for j := i + 1; j < r; j++ {
			v := (t.At(i, j) + t.At(j, i)) / 2
			t.Set(i, j, v)
			t.Set(j, i, v)
		}
	}
	tvals, tvecs := JacobiEig(t)
	ritz := q.MatMul(tvecs, workers)
	if track {
		obs.GetHistogram("linalg/top_eig_ns").Observe(time.Since(startAll).Nanoseconds())
	}
	return tvals, ritz
}
