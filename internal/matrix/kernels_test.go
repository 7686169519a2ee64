package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// specials are the values that separate the single-pass kernels from
// subtly different rewrites: signed zeros, infinities and NaN. The
// (±Inf, NaN) pairs tell math.Min/math.Max from the builtin min/max:
// math.Max(+Inf, NaN) is +Inf, the builtin max gives NaN.
var specials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1, -2.5, 3}

// specialMat draws a rows x cols matrix of which about half the cells are
// specials, the rest normal draws or exact zeros. The leading L x L block
// (L = len(specials)) holds specials[(i+j)%L], so every ordered pair of
// specials meets under the same-shape and both broadcast layouts.
func specialMat(rng *rand.Rand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.data {
		switch r := rng.Float64(); {
		case r < 0.5:
			m.data[i] = specials[rng.Intn(len(specials))]
		case r < 0.6:
			m.data[i] = 0
		default:
			m.data[i] = rng.NormFloat64()
		}
	}
	for i := 0; i < rows && i < len(specials); i++ {
		for j := 0; j < cols && j < len(specials); j++ {
			m.data[i*cols+j] = specials[(i+j)%len(specials)]
		}
	}
	return m
}

// sameFloat compares NaN as a class and every other value by its bits.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// forThreads runs fn at one kernel thread and at four.
func forThreads(t *testing.T, fn func(threads int)) {
	t.Helper()
	defer SetParallelism(SetParallelism(1))
	for _, threads := range []int{1, 4} {
		SetParallelism(threads)
		fn(threads)
	}
}

// kernelShapes are the test shapes: a single row, a single column, no rows,
// and shapes large enough to take the parallel paths.
var kernelShapes = [][2]int{{1, 9}, {9, 1}, {0, 5}, {13, 8}, {450, 37}}

// zeroSide returns a copy of m with its negative cells (neg) or positive
// cells (!neg) replaced by a zero of the same sign, so the column minima
// (or maxima) are signed zeros and depend on which zero a column meets
// first.
func zeroSide(m *Dense, neg bool) *Dense {
	out := m.Clone()
	for i, v := range out.data {
		if (neg && v < 0) || (!neg && v > 0) {
			out.data[i] = math.Copysign(0, v)
		}
	}
	return out
}

// TestColPartialsBitwise checks ColPartials and ColAgg for every AggOp
// against a per-column aggState oracle that adds each column's rows in
// ascending order.
func TestColPartialsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	forThreads(t, func(threads int) {
		for _, sh := range kernelShapes {
			// Finite draws pin the summation order; specials make most
			// sums non-finite.
			base := specialMat(rng, sh[0], sh[1])
			for _, m := range []*Dense{Randn(rng, sh[0], sh[1], 0, 1), base, zeroSide(base, true), zeroSide(base, false)} {
				checkColPartials(t, threads, m)
			}
		}
	})
}

// checkColPartials compares m's ColPartials and ColAgg with the oracle.
func checkColPartials(t *testing.T, threads int, m *Dense) {
	t.Helper()
	states := make([]aggState, m.cols)
	for j := range states {
		states[j] = newAggState()
		for i := 0; i < m.rows; i++ {
			states[j].add(m.At(i, j))
		}
	}
	p := m.ColPartials()
	if p.rows != 5 || p.cols != m.cols {
		t.Fatalf("threads=%d %dx%d: partials are %dx%d, want 5x%d", threads, m.rows, m.cols, p.rows, p.cols, m.cols)
	}
	for j, s := range states {
		want := []float64{s.sum, s.sumSq, s.mn, s.mx, float64(s.n)}
		for r, w := range want {
			if got := p.At(r, j); !sameFloat(got, w) {
				t.Fatalf("threads=%d %dx%d: partial (%d,%d) = %v, oracle %v", threads, m.rows, m.cols, r, j, got, w)
			}
		}
	}
	for op := AggSum; op <= AggSumSq; op++ {
		got := m.ColAgg(op)
		for j := range states {
			if w := states[j].result(op); !sameFloat(got.At(0, j), w) {
				t.Fatalf("threads=%d %dx%d: col%s[%d] = %v, oracle %v", threads, m.rows, m.cols, op, j, got.At(0, j), w)
			}
		}
	}
}

// TestTMatMulBitwise checks TMatMul against MatMul on the materialized
// transpose, on inputs with zeros, signed zeros, infinities and NaN.
func TestTMatMulBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	forThreads(t, func(threads int) {
		for _, sh := range [][3]int{{1, 9, 4}, {9, 1, 1}, {9, 4, 1}, {0, 5, 3}, {13, 8, 6}, {300, 37, 3}, {700, 40, 1}} {
			for _, in := range [][2]*Dense{
				{specialMat(rng, sh[0], sh[1]), specialMat(rng, sh[0], sh[2])},
				{Randn(rng, sh[0], sh[1], 0, 1), Randn(rng, sh[0], sh[2], 0, 1)}, // pins the summation order
			} {
				checkTMatMul(t, threads, in[0], in[1])
			}
		}
	})
}

// checkTMatMul compares a.TMatMul(b) with MatMul on the materialized
// transpose.
func checkTMatMul(t *testing.T, threads int, a, b *Dense) {
	t.Helper()
	got, want := a.TMatMul(b), a.Transpose().MatMul(b)
	if got.rows != want.rows || got.cols != want.cols {
		t.Fatalf("threads=%d t(%dx%d) %%*%% %dx%d: shape %dx%d, want %dx%d",
			threads, a.rows, a.cols, b.rows, b.cols, got.rows, got.cols, want.rows, want.cols)
	}
	for i, w := range want.data {
		if !sameFloat(got.data[i], w) {
			t.Fatalf("threads=%d t(%dx%d) %%*%% %dx%d: cell %d = %v, transpose+matmul gives %v",
				threads, a.rows, a.cols, b.rows, b.cols, i, got.data[i], w)
		}
	}
}

// TestBinaryBitwise checks Binary in every broadcast layout and
// BinaryScalar on both sides against op.apply per cell, for every op.
func TestBinaryBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	check := func(threads int, what string, op BinaryOp, got *Dense, want func(i, j int) float64) {
		t.Helper()
		for i := 0; i < got.rows; i++ {
			for j := 0; j < got.cols; j++ {
				if w := want(i, j); !sameFloat(got.At(i, j), w) {
					t.Fatalf("threads=%d %s %s %dx%d: cell (%d,%d) = %v, apply gives %v",
						threads, what, op, got.rows, got.cols, i, j, got.At(i, j), w)
				}
			}
		}
	}
	forThreads(t, func(threads int) {
		for _, sh := range kernelShapes {
			m := specialMat(rng, sh[0], sh[1])
			same := specialMat(rng, sh[0], sh[1])
			col := specialMat(rng, sh[0], 1)
			row := specialMat(rng, 1, sh[1])
			for op := OpAdd; op <= OpLog; op++ {
				check(threads, "same-shape", op, m.Binary(op, same), func(i, j int) float64 {
					return op.apply(m.At(i, j), same.At(i, j))
				})
				check(threads, "column-vector", op, m.Binary(op, col), func(i, j int) float64 {
					return op.apply(m.At(i, j), col.At(i, 0))
				})
				check(threads, "row-vector", op, m.Binary(op, row), func(i, j int) float64 {
					return op.apply(m.At(i, j), row.At(0, j))
				})
				for _, s := range append(specials, 0.75) {
					check(threads, "1x1", op, m.Binary(op, NewDenseData(1, 1, []float64{s})), func(i, j int) float64 {
						return op.apply(m.At(i, j), s)
					})
					check(threads, "scalar", op, m.BinaryScalar(op, s, false), func(i, j int) float64 {
						return op.apply(m.At(i, j), s)
					})
					check(threads, "swapped scalar", op, m.BinaryScalar(op, s, true), func(i, j int) float64 {
						return op.apply(s, m.At(i, j))
					})
				}
			}
		}
	})
}

// The kernel microbenchmarks run at the P2 site shape: 10000 x 183 at about
// 17.5% non-zeros (7000 x 183 for t(A) %*% b, the training split). Results
// go to benchSink so the compiler cannot drop the measured call.

var benchSink *Dense

func p2SiteMat(rows int) *Dense {
	rng := rand.New(rand.NewSource(34))
	m := NewDense(rows, 183)
	for i := range m.data {
		if rng.Float64() < 0.175 {
			m.data[i] = rng.NormFloat64()
		}
	}
	return m
}

func BenchmarkColPartials(b *testing.B) {
	m := p2SiteMat(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = m.ColPartials()
	}
}

func BenchmarkBinaryRowBroadcast(b *testing.B) {
	m := p2SiteMat(10000)
	lo := Randn(rand.New(rand.NewSource(35)), 1, 183, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = m.Binary(OpMax, lo)
	}
}

func BenchmarkTMatMul(b *testing.B) {
	m := p2SiteMat(7000)
	y := Randn(rand.New(rand.NewSource(36)), 7000, 1, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = m.TMatMul(y)
	}
}
