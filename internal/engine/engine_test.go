package engine_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"exdra/internal/engine"
	"exdra/internal/federated"
	"exdra/internal/fedtest"
	"exdra/internal/matrix"
	"exdra/internal/privacy"
)

func cluster(t *testing.T) *fedtest.Cluster {
	t.Helper()
	cl, err := fedtest.Start(fedtest.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func fed(t *testing.T, cl *fedtest.Cluster, x *matrix.Dense, lvl privacy.Level) *federated.Matrix {
	t.Helper()
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, lvl)
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func TestDispatchLocalAndFederatedAgree(t *testing.T) {
	cl := cluster(t)
	rng := rand.New(rand.NewSource(1))
	x := matrix.Rand(rng, 20, 5, 0.5, 2)
	v := matrix.Randn(rng, 5, 1, 0, 1)
	fx := fed(t, cl, x, privacy.Public)

	// Same script, two backends.
	runScript := func(m engine.Mat) (float64, *matrix.Dense) {
		p := engine.MatMul(m, v)
		q := engine.Unary(matrix.USigmoid, p)
		s := engine.Sum(engine.Mul(q, q))
		g := engine.Local(engine.TMatMul(m, engine.Local(q)))
		return s, g
	}
	ls, lg := runScript(x)
	fs, fg := runScript(fx)
	if math.Abs(ls-fs) > 1e-9 || !lg.EqualApprox(fg, 1e-9) {
		t.Fatal("backends disagree")
	}
}

func TestIsFederatedAndLocal(t *testing.T) {
	cl := cluster(t)
	x := matrix.Fill(4, 2, 1)
	fx := fed(t, cl, x, privacy.Public)
	if engine.IsFederated(x) || !engine.IsFederated(fx) {
		t.Fatal("IsFederated")
	}
	if engine.Local(x) != x {
		t.Fatal("Local of dense should be identity")
	}
	if !engine.Local(fx).EqualApprox(x, 0) {
		t.Fatal("Local of federated")
	}
}

func TestGuardConvertsPanics(t *testing.T) {
	cl := cluster(t)
	x := matrix.Fill(4, 2, 1)
	fx := fed(t, cl, x, privacy.Private)
	err := func() (err error) {
		defer engine.Guard(&err)
		engine.Local(fx) // privacy violation -> engine panic
		return nil
	}()
	if err == nil {
		t.Fatal("Guard did not capture the failure")
	}
	var ee *engine.Error
	if !errors.As(err, &ee) {
		t.Fatalf("error type %T", err)
	}
	// Non-engine panics pass through.
	defer func() {
		if recover() == nil {
			t.Fatal("foreign panic swallowed")
		}
	}()
	func() {
		var err error
		defer engine.Guard(&err)
		panic("unrelated")
	}()
}

func TestBinaryMixedOperandOrders(t *testing.T) {
	cl := cluster(t)
	x := matrix.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}})
	b := matrix.FromRows([][]float64{{10, 10}, {10, 10}, {10, 10}, {10, 10}})
	fx := fed(t, cl, x, privacy.Public)
	// local op fed (swap path).
	got := engine.Local(engine.Binary(matrix.OpSub, b, fx))
	if !got.EqualApprox(b.Sub(x), 0) {
		t.Fatal("local-fed binary")
	}
	// fed op local.
	got2 := engine.Local(engine.Binary(matrix.OpSub, fx, b))
	if !got2.EqualApprox(x.Sub(b), 0) {
		t.Fatal("fed-local binary")
	}
}

func TestTMatMulVariants(t *testing.T) {
	cl := cluster(t)
	rng := rand.New(rand.NewSource(2))
	x := matrix.Randn(rng, 16, 4, 0, 1)
	w := matrix.Randn(rng, 16, 3, 0, 1)
	want := x.Transpose().MatMul(w)
	fx := fed(t, cl, x, privacy.Public)
	if !engine.Local(engine.TMatMul(x, w)).EqualApprox(want, 1e-10) {
		t.Fatal("local tmatmul")
	}
	if !engine.Local(engine.TMatMul(fx, w)).EqualApprox(want, 1e-9) {
		t.Fatal("fed-local tmatmul")
	}
	fw := fed(t, cl, w, privacy.Public)
	if !engine.Local(engine.TMatMul(fx, fw)).EqualApprox(want, 1e-9) {
		t.Fatal("aligned fed-fed tmatmul")
	}
}

func TestSliceReplaceRowIndexMaxDispatch(t *testing.T) {
	cl := cluster(t)
	x := matrix.FromRows([][]float64{{0, 5}, {7, 1}, {2, 9}, {4, 4}})
	fx := fed(t, cl, x, privacy.Public)
	if !engine.Local(engine.Slice(fx, 1, 3, 0, 2)).EqualApprox(x.Slice(1, 3, 0, 2), 0) {
		t.Fatal("slice dispatch")
	}
	if !engine.Local(engine.Replace(fx, 0, -1)).EqualApprox(x.Replace(0, -1), 0) {
		t.Fatal("replace dispatch")
	}
	if !engine.Local(engine.RowIndexMax(fx)).EqualApprox(x.RowIndexMax(), 0) {
		t.Fatal("rowIndexMax dispatch")
	}
	if !engine.Local(engine.Softmax(fx)).EqualApprox(x.Softmax(), 1e-12) {
		t.Fatal("softmax dispatch")
	}
}

func TestFreeIsNoopForLocal(t *testing.T) {
	x := matrix.Fill(2, 2, 1)
	engine.Free(x) // must not panic
}

// TestFreeAcrossCoordinators frees matrices of two standalone coordinators,
// each over its own workers, in one call: every coordinator's group is
// freed, one batch per worker.
func TestFreeAcrossCoordinators(t *testing.T) {
	cl, cl2 := cluster(t), cluster(t)
	a := fed(t, cl, matrix.Fill(4, 2, 1), privacy.Public)
	b := fed(t, cl2, matrix.Fill(4, 2, 2), privacy.Public)
	c := fed(t, cl, matrix.Fill(4, 2, 3), privacy.Public)
	engine.Free(a, b, matrix.Fill(1, 1, 0), c)
	for i, w := range append(cl.Workers, cl2.Workers...) {
		if n := w.NumObjects(); n != 0 {
			t.Errorf("worker %d holds %d objects after freeing across coordinators", i, n)
		}
	}
}

// TestTakeAcrossCoordinators takes a matrix while freeing intermediates of
// its own coordinator and of another one.
func TestTakeAcrossCoordinators(t *testing.T) {
	cl, cl2 := cluster(t), cluster(t)
	x := matrix.Fill(4, 2, 5)
	a := fed(t, cl, x, privacy.Public)
	b := fed(t, cl2, x, privacy.Public)
	doubled := engine.Scale(a, 2)
	got := engine.Take(doubled, a, b)
	if !got.EqualApprox(x.BinaryScalar(matrix.OpMul, 2, false), 0) {
		t.Fatal("Take returned the wrong matrix")
	}
	for i, w := range append(cl.Workers, cl2.Workers...) {
		if n := w.NumObjects(); n != 0 {
			t.Errorf("worker %d holds %d objects after Take", i, n)
		}
	}
	if got := engine.Take(x, matrix.Fill(1, 1, 0)); got != x {
		t.Fatal("Take of a local matrix is not the identity")
	}
}
