package matrix

import (
	"fmt"
	"math"
)

// blockSize is the cache-blocking tile edge for the matmul kernels.
const blockSize = 64

// MatMul returns m %*% b. The kernel is cache-blocked over the inner
// dimension and parallelized over row bands, mirroring the role of a BLAS
// dgemm in SystemDS' local backend.
func (m *Dense) MatMul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("matrix: matmul shape mismatch %dx%d %%*%% %dx%d",
			m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	n, k, p := m.rows, m.cols, b.cols
	parallelFor(n, k*p, func(lo, hi int) {
		for kb := 0; kb < k; kb += blockSize {
			kEnd := kb + blockSize
			if kEnd > k {
				kEnd = k
			}
			for i := lo; i < hi; i++ {
				arow := m.data[i*k : (i+1)*k]
				orow := out.data[i*p : (i+1)*p]
				for kk := kb; kk < kEnd; kk++ {
					a := arow[kk]
					if a == 0 {
						continue
					}
					brow := b.data[kk*p : (kk+1)*p]
					for j, bv := range brow {
						orow[j] += a * bv
					}
				}
			}
		}
	})
	return out
}

// TMatMul returns t(m) %*% b without materializing t(m). It is
// parallelized over bands of output rows (columns of m); each output cell
// accumulates over the rows of m in ascending order and skips zero cells
// of m as MatMul does, so the result is bitwise equal to MatMul on the
// materialized transpose.
func (m *Dense) TMatMul(b *Dense) *Dense {
	if m.rows != b.rows {
		panic(fmt.Sprintf("matrix: tmatmul shape mismatch t(%dx%d) %%*%% %dx%d",
			m.rows, m.cols, b.rows, b.cols))
	}
	n, k, p := m.rows, m.cols, b.cols
	out := NewDense(k, p)
	parallelFor(k, n*p, func(lo, hi int) {
		for r := 0; r < n; r++ {
			arow := m.data[r*k+lo : r*k+hi]
			brow := b.data[r*p : (r+1)*p]
			for i, a := range arow {
				if a == 0 {
					continue
				}
				orow := out.data[(lo+i)*p : (lo+i+1)*p]
				for j, bv := range brow {
					orow[j] += a * bv
				}
			}
		}
	})
	return out
}

// TSMM returns the transpose-self matrix multiplication t(m) %*% m,
// exploiting symmetry of the result.
func (m *Dense) TSMM() *Dense {
	k, n := m.rows, m.cols
	out := NewDense(n, n)
	// Accumulate per-band partials to keep the parallel loop race-free, then
	// reduce. Bands run over the shared dimension k.
	threads := threadsFor(k)
	if threads <= 1 || k*n*n < parallelThreshold {
		tsmmBand(m, out, 0, k)
	} else {
		partials := make([]*Dense, threads)
		chunk := (k + threads - 1) / threads
		parallelFor(threads, chunk*n*n, func(lo, hi int) {
			for t := lo; t < hi; t++ {
				rb, re := band(t, chunk, k)
				if rb >= re {
					continue
				}
				p := NewDense(n, n)
				tsmmBand(m, p, rb, re)
				partials[t] = p
			}
		})
		for _, p := range partials {
			if p != nil {
				out.AddInPlace(p)
			}
		}
	}
	// Mirror the upper triangle into the lower triangle.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out.data[j*n+i] = out.data[i*n+j]
		}
	}
	return out
}

// tsmmBand accumulates t(m[rb:re,]) %*% m[rb:re,] into the upper triangle
// of out.
func tsmmBand(m, out *Dense, rb, re int) {
	n := m.cols
	for r := rb; r < re; r++ {
		row := m.Row(r)
		for i, a := range row {
			if a == 0 {
				continue
			}
			orow := out.data[i*n : (i+1)*n]
			for j := i; j < n; j++ {
				orow[j] += a * row[j]
			}
		}
	}
}

// MMChain computes the fused matrix-multiplication chain
// t(X) %*% (w * (X %*% v)) when w is non-nil, or t(X) %*% (X %*% v) when w
// is nil — the pattern used by LM and MLogReg inner loops (SystemDS mmchain).
// v may carry c columns (and w, if given, the same c columns): column j of
// the cols x c result is t(X) %*% (w_j * (X %*% v_j)), computed over the
// same row bands in the same order as a one-column call, so it is bitwise
// equal to MMChain(v_j, w_j). One pass over X serves all c columns.
func (m *Dense) MMChain(v, w *Dense) *Dense {
	if m.cols != v.rows {
		panic("matrix: mmchain requires v of shape cols x c")
	}
	c := v.cols
	if w != nil && (w.rows != m.rows || w.cols != c) {
		panic("matrix: mmchain requires w of shape rows x c")
	}
	n, k := m.rows, m.cols
	// Column-major v and partials (c x k) keep each column contiguous; for
	// c = 1 both layouts coincide with the k x 1 vector.
	vt := v.Transpose()
	threads := threadsFor(n)
	chunk := (n + threads - 1) / threads
	partials := make([]*Dense, threads)
	parallelFor(threads, chunk*k*2*c, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			rb, re := band(t, chunk, n)
			if rb >= re {
				continue
			}
			p := NewDense(c, k)
			for i := rb; i < re; i++ {
				row := m.Row(i)
				for j := 0; j < c; j++ {
					vj := vt.data[j*k : (j+1)*k]
					dot := 0.0
					for a, x := range row {
						dot += x * vj[a]
					}
					if w != nil {
						dot *= w.data[i*c+j]
					}
					if dot == 0 {
						continue
					}
					pj := p.data[j*k : (j+1)*k]
					for a, x := range row {
						pj[a] += x * dot
					}
				}
			}
			partials[t] = p
		}
	})
	out := NewDense(c, k)
	for _, p := range partials {
		if p != nil {
			out.AddInPlace(p)
		}
	}
	return out.Transpose()
}

// Transpose returns t(m), blocked for cache locality.
func (m *Dense) Transpose() *Dense {
	out := NewDense(m.cols, m.rows)
	r, c := m.rows, m.cols
	parallelFor((r+blockSize-1)/blockSize, blockSize*c, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			ib, ie := bi*blockSize, (bi+1)*blockSize
			if ie > r {
				ie = r
			}
			for jb := 0; jb < c; jb += blockSize {
				je := jb + blockSize
				if je > c {
					je = c
				}
				for i := ib; i < ie; i++ {
					for j := jb; j < je; j++ {
						out.data[j*r+i] = m.data[i*c+j]
					}
				}
			}
		}
	})
	return out
}

// Dot returns the inner product of two vectors (any orientation) with equal
// cell counts.
func Dot(a, b *Dense) float64 {
	if len(a.data) != len(b.data) {
		panic("matrix: dot length mismatch")
	}
	s := 0.0
	for i, v := range a.data {
		s += v * b.data[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of all cells.
func (m *Dense) Norm2() float64 {
	return math.Sqrt(m.Agg(AggSumSq))
}
