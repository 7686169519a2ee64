package algo_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"exdra/internal/algo"
	"exdra/internal/data"
	"exdra/internal/engine"
	"exdra/internal/matrix"
)

// mlogregPerClass is the oracle for MLogReg's lockstep CG: the same Newton
// loop with the k per-class CG solves run one class after another, one
// one-column mmchain per inner iteration. staggered reports whether, in
// some Newton step, the classes left CG after different iteration counts.
func mlogregPerClass(x engine.Mat, y *matrix.Dense, cfg algo.MLogRegConfig) (res *algo.MLogRegResult, staggered bool) {
	lambda, maxOuter, maxInner, tol := 1e-3, 20, 10, 1e-6
	if cfg.Lambda != 0 {
		lambda = cfg.Lambda
	}
	if cfg.MaxOuterIter != 0 {
		maxOuter = cfg.MaxOuterIter
	}
	if cfg.MaxInnerIter != 0 {
		maxInner = cfg.MaxInnerIter
	}
	if cfg.Tolerance != 0 {
		tol = cfg.Tolerance
	}
	k := cfg.Classes
	if k == 0 {
		k = int(y.Max())
	}
	n, d := x.Rows(), x.Cols()
	w := matrix.NewDense(d, k)
	yOne := matrix.NewDense(n, k)
	for i := 0; i < n; i++ {
		yOne.Set(i, int(y.At(i, 0))-1, 1)
	}
	outer, innerTotal := 0, 0
	for ; outer < maxOuter; outer++ {
		xw := engine.MatMul(x, w)
		p := engine.Local(engine.Softmax(xw))
		engine.Free(xw)
		g := engine.Local(engine.TMatMul(x, p.Sub(yOne)))
		g.AxpyInPlace(lambda, w)
		if g.Norm2() < tol {
			break
		}
		first := -1
		for c := 0; c < k; c++ {
			iters := 0
			q := matrix.NewDense(n, 1)
			for i := 0; i < n; i++ {
				pc := p.At(i, c)
				q.Set(i, 0, pc*(1-pc)+1e-8)
			}
			dir := matrix.NewDense(d, 1)
			r := g.SliceCols(c, c+1).Neg()
			pv := r.Clone()
			rs := matrix.Dot(r, r)
			for inner := 0; inner < maxInner && rs > 1e-16; inner++ {
				hv := engine.MMChain(x, pv, q)
				hv.AxpyInPlace(lambda, pv)
				alpha := rs / matrix.Dot(pv, hv)
				dir.AxpyInPlace(alpha, pv)
				r.AxpyInPlace(-alpha, hv)
				rsNew := matrix.Dot(r, r)
				beta := rsNew / rs
				for i, rv := range r.Data() {
					pv.Data()[i] = rv + beta*pv.Data()[i]
				}
				rs = rsNew
				innerTotal++
				iters++
			}
			if first < 0 {
				first = iters
			}
			staggered = staggered || iters != first
			for i := 0; i < d; i++ {
				w.Set(i, c, w.At(i, c)+dir.At(i, 0))
			}
		}
	}
	return &algo.MLogRegResult{Weights: w, OuterIters: outer, InnerIters: innerTotal}, staggered
}

// TestMLogRegLockstepMatchesPerClassLoop pins lockstep CG to the per-class
// loop bit for bit, local and federated: with the default tolerance (few
// features, so classes hit their rs exit at different inner iterations and
// freeze while the others go on, as checked on the local runs) and with
// fixed iteration caps.
func TestMLogRegLockstepMatchesPerClassLoop(t *testing.T) {
	cl := startCluster(t, 3)
	cfgs := []algo.MLogRegConfig{
		{},
		{MaxOuterIter: 1, MaxInnerIter: 3, Tolerance: -1},
	}
	for k := 2; k <= 4; k++ {
		x, y := data.MultiClass(int64(60+k), 150, 8, k)
		for ci, cfg := range cfgs {
			for _, mat := range []engine.Mat{x, federate(t, cl, x)} {
				name := fmt.Sprintf("k=%d cfg=%d %T", k, ci, mat)
				want, staggered := mlogregPerClass(mat, y, cfg)
				if _, local := mat.(*matrix.Dense); local && ci == 0 && !staggered {
					t.Fatalf("%s: no Newton step froze one class while another went on", name)
				}
				got, err := algo.MLogReg(mat, y, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got.OuterIters != want.OuterIters || got.InnerIters != want.InnerIters {
					t.Fatalf("%s: %d outer / %d inner iterations, per-class loop made %d / %d",
						name, got.OuterIters, got.InnerIters, want.OuterIters, want.InnerIters)
				}
				for i, v := range want.Weights.Data() {
					if math.Float64bits(got.Weights.Data()[i]) != math.Float64bits(v) {
						t.Fatalf("%s: weight %d = %v, per-class loop gives %v", name, i, got.Weights.Data()[i], v)
					}
				}
			}
		}
	}
}

// TestMLogRegRejectsInvalidLabels checks that a label that is not an
// integer class in [1, k] fails with an error naming its row and value,
// instead of corrupting the one-hot targets or panicking.
func TestMLogRegRejectsInvalidLabels(t *testing.T) {
	x := matrix.Fill(4, 2, 1)
	for _, row := range []int{0, 2} {
		for _, bad := range []float64{0, 4, 1.5} {
			y := matrix.NewDense(4, 1)
			for i := 0; i < 4; i++ {
				y.Set(i, 0, float64(1+i%3))
			}
			y.Set(row, 0, bad)
			_, err := algo.MLogReg(x, y, algo.MLogRegConfig{Classes: 3, MaxOuterIter: 1})
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("label %v at row %d", bad, row)) {
				t.Errorf("label %v at row %d: error %v, want one naming the row and the value", bad, row, err)
			}
		}
	}
}
