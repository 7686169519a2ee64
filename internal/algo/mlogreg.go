package algo

import (
	"fmt"
	"math"

	"exdra/internal/engine"
	"exdra/internal/matrix"
)

// MLogRegConfig configures multinomial logistic regression.
type MLogRegConfig struct {
	Classes      int     // number of classes (inferred from labels if zero)
	Lambda       float64 // L2 regularization (default 1e-3)
	MaxOuterIter int     // Newton iterations (default 20)
	MaxInnerIter int     // CG iterations per Newton step (default 10)
	Tolerance    float64 // gradient-norm tolerance (default 1e-6)
}

// MLogRegResult is a trained multinomial logistic-regression model.
type MLogRegResult struct {
	// Weights is cols x classes.
	Weights    *matrix.Dense
	OuterIters int
	InnerIters int
}

// MLogReg trains multi-class logistic regression with two nested while
// loops (as the paper describes): an outer Newton loop and an inner
// conjugate-gradient loop whose every iteration evaluates the
// Hessian-vector product X⊤(q ⊙ (Xv)) over the federated X. Labels y are
// 1-based class indices held at the coordinator.
func MLogReg(x engine.Mat, y *matrix.Dense, cfg MLogRegConfig) (res *MLogRegResult, err error) {
	defer engine.Guard(&err)
	lambda := cfg.Lambda
	if lambda == 0 {
		lambda = 1e-3
	}
	maxOuter := cfg.MaxOuterIter
	if maxOuter == 0 {
		maxOuter = 20
	}
	maxInner := cfg.MaxInnerIter
	if maxInner == 0 {
		maxInner = 10
	}
	tol := cfg.Tolerance
	if tol == 0 {
		tol = 1e-6
	}
	k := cfg.Classes
	if k == 0 {
		k = int(y.Max())
	}
	n, d := x.Rows(), x.Cols()
	if y.Rows() != n || y.Cols() != 1 {
		return nil, fmt.Errorf("algo: mlogreg labels are %dx%d, want %dx1", y.Rows(), y.Cols(), n)
	}
	for i := 0; i < n; i++ {
		if l := y.At(i, 0); l != math.Trunc(l) || l < 1 || l > float64(k) {
			return nil, fmt.Errorf("algo: mlogreg label %v at row %d is not a class in [1, %d]", l, i, k)
		}
	}
	w := matrix.NewDense(d, k)

	// One-hot targets at the coordinator.
	yOne := matrix.NewDense(n, k)
	for i := 0; i < n; i++ {
		yOne.Set(i, int(y.At(i, 0))-1, 1)
	}

	outer, innerTotal := 0, 0
	for ; outer < maxOuter; outer++ {
		// Class probabilities P = softmax(X %*% W): the product stays
		// federated; the per-class columns consolidate as aggregates only
		// via the gradient below. On federated X the product and softmax
		// are queued and travel with Take's fetch-and-free batch: one
		// round trip per worker.
		xw := engine.MatMul(x, w)
		sm := engine.Softmax(xw)
		p := engine.Take(sm, xw)

		// Gradient G = t(X) %*% (P - Y1) + lambda*W.
		g := engine.Local(engine.TMatMul(x, p.Sub(yOne)))
		g.AxpyInPlace(lambda, w)
		if g.Norm2() < tol {
			break
		}

		// Newton direction per class via CG with Hessian-vector products
		// Hv = X⊤(q ⊙ (Xv)) + lambda v, q = p_c(1-p_c) — the paper's inner
		// X⊤(w ⊙ (Xv)) pattern. The k independent solves run in lockstep:
		// each inner iteration evaluates the products of every class still
		// iterating in one multi-column mmchain (one federated round trip,
		// not one per class). A class stops at its own rs <= 1e-16 exit and
		// stays frozen while the others go on.
		cg := make([]cgState, k)
		for c := range cg {
			q := matrix.NewDense(n, 1)
			for i := 0; i < n; i++ {
				pc := p.At(i, c)
				q.Set(i, 0, pc*(1-pc)+1e-8)
			}
			r := g.SliceCols(c, c+1).Neg()
			cg[c] = cgState{q: q, dir: matrix.NewDense(d, 1), r: r, pv: r.Clone(), rs: matrix.Dot(r, r)}
		}
		for inner := 0; inner < maxInner; inner++ {
			var active []int
			var pvs, qs []*matrix.Dense
			for c := range cg {
				if cg[c].rs > 1e-16 {
					active = append(active, c)
					pvs = append(pvs, cg[c].pv)
					qs = append(qs, cg[c].q)
				}
			}
			if len(active) == 0 {
				break
			}
			hv := engine.MMChain(x, matrix.CBind(pvs...), matrix.CBind(qs...))
			for j, c := range active {
				cg[c].step(hv.SliceCols(j, j+1), lambda)
				innerTotal++
			}
		}
		for c := range cg {
			for i := 0; i < d; i++ {
				w.Set(i, c, w.At(i, c)+cg[c].dir.At(i, 0))
			}
		}
	}
	return &MLogRegResult{Weights: w, OuterIters: outer, InnerIters: innerTotal}, nil
}

// cgState is one class's conjugate-gradient solve of H dir = -g_c.
type cgState struct {
	q     *matrix.Dense // Hessian weights p_c(1-p_c) + 1e-8, n x 1
	dir   *matrix.Dense // solution so far, d x 1
	r, pv *matrix.Dense // residual and search direction, d x 1
	rs    float64       // squared residual norm
}

// step advances the solve by one CG iteration given X⊤(q ⊙ (X pv)).
func (s *cgState) step(hv *matrix.Dense, lambda float64) {
	hv.AxpyInPlace(lambda, s.pv)
	alpha := s.rs / matrix.Dot(s.pv, hv)
	s.dir.AxpyInPlace(alpha, s.pv)
	s.r.AxpyInPlace(-alpha, hv)
	rsNew := matrix.Dot(s.r, s.r)
	beta := rsNew / s.rs
	for i, rv := range s.r.Data() {
		s.pv.Data()[i] = rv + beta*s.pv.Data()[i]
	}
	s.rs = rsNew
}

// Predict returns the 1-based predicted class per row.
func (m *MLogRegResult) Predict(x engine.Mat) (out *matrix.Dense, err error) {
	defer engine.Guard(&err)
	scores := engine.MatMul(x, m.Weights)
	idx := engine.RowIndexMax(scores)
	return engine.Take(idx, scores), nil
}

// ClassAccuracy computes the fraction of exact class matches for 1-based
// class index vectors.
func ClassAccuracy(pred, y *matrix.Dense) float64 {
	correct := 0
	for i, p := range pred.Data() {
		if p == y.Data()[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred.Data()))
}
