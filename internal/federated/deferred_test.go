package federated_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"exdra/internal/algo"
	"exdra/internal/federated"
	"exdra/internal/fedrpc"
	"exdra/internal/matrix"
	"exdra/internal/netem"
	"exdra/internal/privacy"
)

// TestDeferredOpsBindAtFlush pins that a reply-less operation sends
// nothing: its output is bound at the worker only when a later,
// data-bearing call carries the queued requests (a HEALTH ping does not),
// and that call computes the same result as the eager chain would.
func TestDeferredOpsBindAtFlush(t *testing.T) {
	cl := startCluster(t, 2)
	x := randMat(70, 20, 3)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := fx.BinaryScalar(matrix.OpMul, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	abs, err := scaled.Unary(matrix.UAbs)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range cl.Workers {
		// A HEALTH ping never carries the queue.
		if _, err := cl.Coord.Call(cl.Addrs[i], fedrpc.Request{Type: fedrpc.Health}); err != nil {
			t.Fatal(err)
		}
		if n := w.NumObjects(); n != 1 {
			t.Fatalf("worker %d holds %d objects before any flush, want only X's partition", i, n)
		}
	}
	got, err := federated.Take(abs, scaled)
	if err != nil {
		t.Fatal(err)
	}
	if want := x.BinaryScalar(matrix.OpMul, 2, false).Unary(matrix.UAbs); !got.EqualApprox(want, 0) {
		t.Fatal("flushed chain differs from the local chain")
	}
	for i, w := range cl.Workers {
		if n := w.NumObjects(); n != 1 {
			t.Errorf("worker %d holds %d objects after Take, want only X's partition", i, n)
		}
	}
}

// TestDeferredErrorNamesQueuedOp checks that a queued request the worker
// rejects surfaces at the next flush as a *DeferredError naming the
// address, the opcode and the operation that queued it, and unwrapping to
// the worker's message.
func TestDeferredErrorNamesQueuedOp(t *testing.T) {
	cl := startCluster(t, 1)
	fx, err := federated.Distribute(cl.Coord, randMat(71, 10, 4), cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	fm := fx.Map()
	fm.Partitions[0].DataID = 999999
	bad, err := federated.FromMap(cl.Coord, fm)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := bad.Slice(0, 5, 0, 2)
	if err != nil {
		t.Fatalf("slice should queue, not fail: %v", err)
	}
	_, err = sl.Consolidate()
	var de *federated.DeferredError
	if !errors.As(err, &de) {
		t.Fatalf("flush error %v (%T), want a *federated.DeferredError", err, err)
	}
	if de.Addr != cl.Addrs[0] || de.Opcode != "rightIndex" || de.Op != "Slice" {
		t.Fatalf("deferred error names %s %s from %s, want %s rightIndex from Slice", de.Addr, de.Opcode, de.Op, cl.Addrs[0])
	}
	if errors.Unwrap(err) == nil || !strings.Contains(errors.Unwrap(err).Error(), "999999") {
		t.Fatalf("deferred error %v does not unwrap to the worker's message", err)
	}
	// The failed flush consumed the queue: the next call runs clean.
	if got, err := fx.Sum(); err != nil || got == 0 {
		t.Fatalf("call after the failed flush: %v, %v", got, err)
	}
}

// TestDeferredUDFPreFlushRetried sends a UDF after queued instructions. The
// queue goes out first as its own retryable batch, so a connection reset
// during it is retried, while the UDF batch itself stays fail-fast.
func TestDeferredUDFPreFlushRetried(t *testing.T) {
	cl := startCluster(t, 1)
	x := randMat(72, 600, 27) // about 130 KB per PUT
	// The reset lands 200 KB into the connection: past the distribute's
	// PUT, inside the queued PUT of the broadcast operand.
	faults := netem.NewFaults(netem.FaultConfig{Seed: 7, ConnResets: 1, ResetAfterBytes: 200 << 10})
	coord := federated.NewCoordinator(fedrpc.Options{Netem: netem.Config{Faults: faults}})
	defer coord.Close()
	coord.SetRetryPolicy(federated.RetryPolicy{Attempts: 3, Backoff: time.Millisecond, Seed: 1})
	fx, err := federated.Distribute(coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	if s := faults.Stats(); s.Resets != 0 {
		t.Fatalf("reset fired during distribute: %+v", s)
	}
	y := randMat(73, 600, 27)
	sum, err := fx.BinaryLocal(matrix.OpAdd, y, false)
	if err != nil {
		t.Fatal(err)
	}
	id := sum.Map().Partitions[0].DataID
	dims, err := coord.ExecUDF(cl.Addrs[0], &fedrpc.UDFCall{Name: "obj_dims", Inputs: []int64{id}})
	if err != nil {
		t.Fatalf("UDF after queued ops: %v", err)
	}
	if d := dims.Matrix(); d.At(0, 0) != 600 || d.At(0, 1) != 27 {
		t.Fatalf("obj_dims = %v, want 600x27", d)
	}
	if s := faults.Stats(); s.Resets != 1 {
		t.Fatalf("fault stats %+v, want the one reset consumed", s)
	}
	got, err := sum.Consolidate()
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualApprox(x.Add(y), 0) {
		t.Fatal("retried queued instruction computed a wrong result")
	}
}

// TestDeferredConcurrentDependencies runs two goroutines on one coordinator,
// each queueing a dependent chain and reading it back while the other
// flushes. A batch must never overtake a queued request it depends on:
// every read-back matches the local chain.
func TestDeferredConcurrentDependencies(t *testing.T) {
	cl := startCluster(t, 2)
	x := randMat(74, 40, 3)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = func() error {
				for i := 0; i < 25; i++ {
					s := float64(10*g + i)
					shifted, err := fx.BinaryScalar(matrix.OpAdd, s, false)
					if err != nil {
						return err
					}
					rs, _, err := shifted.RowAgg(matrix.AggSum)
					if err != nil {
						return err
					}
					got, err := federated.Take(rs, shifted)
					if err != nil {
						return err
					}
					if want := x.BinaryScalar(matrix.OpAdd, s, false).RowSums(); !got.EqualApprox(want, 0) {
						return fmt.Errorf("goroutine %d iteration %d: wrong row sums", g, i)
					}
				}
				return nil
			}()
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range cl.Workers {
		if n := w.NumObjects(); n != 1 {
			t.Errorf("worker %d holds %d objects, want only X's partition", i, n)
		}
	}
}

// TestTakeReleasesWhenGetRefused checks that Take's rmvar runs even when
// the worker refuses the GET under a privacy constraint.
func TestTakeReleasesWhenGetRefused(t *testing.T) {
	cl := startCluster(t, 2)
	fx := distribute(t, cl, randMat(75, 20, 3), federated.RowPartitioned) // PrivateAggregation
	scaled, err := fx.BinaryScalar(matrix.OpMul, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := federated.Take(scaled, fx); err == nil || !strings.Contains(err.Error(), "privacy") {
		t.Fatalf("Take of private data: error %v, want a privacy refusal", err)
	}
	for i, w := range cl.Workers {
		if n := w.NumObjects(); n != 0 {
			t.Errorf("worker %d holds %d objects after the refused Take", i, n)
		}
	}
}

// TestTakeSeveralPartitionsPerWorker checks Take over a matrix with two
// partitions at each worker: one batch per worker fetches both, and
// everything named is released.
func TestTakeSeveralPartitionsPerWorker(t *testing.T) {
	cl := startCluster(t, 2)
	x := randMat(76, 24, 3)
	top, err := federated.Distribute(cl.Coord, x.SliceRows(0, 10), cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	bottom, err := federated.Distribute(cl.Coord, x.SliceRows(10, 24), cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := federated.RBindFed(top, bottom)
	if err != nil {
		t.Fatal(err)
	}
	neg, err := fx.BinaryScalar(matrix.OpMul, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := federated.Take(neg, fx)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualApprox(x.BinaryScalar(matrix.OpMul, -1, false), 0) {
		t.Fatal("Take assembled the partitions wrongly")
	}
	for i, w := range cl.Workers {
		if n := w.NumObjects(); n != 0 {
			t.Errorf("worker %d holds %d objects after Take", i, n)
		}
	}
}

// TestDeferredMLogRegRoundTrips pins the round trips of one MLogReg Newton
// step with three CG iterations: [PUT w, mm, softmax, GET, rmvar], the
// gradient's tmm and three mmchains are five round trips per worker
// (eight when mm, softmax, the GET and the rmvar each took their own).
func TestDeferredMLogRegRoundTrips(t *testing.T) {
	cl := startFanOutCluster(t)
	x := randMat(77, 60, 4)
	y := matrix.NewDense(60, 1)
	for i := 0; i < 60; i++ {
		y.Set(i, 0, float64(1+i%3))
	}
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	cfg := algo.MLogRegConfig{MaxOuterIter: 1, MaxInnerIter: 3, Tolerance: -1}
	train := func() error {
		res, err := algo.MLogReg(fx, y, cfg)
		if err == nil && res.InnerIters != 9 {
			err = fmt.Errorf("%d inner iterations, want 3 per class", res.InnerIters)
		}
		return err
	}
	if d := fastestOf(t, train, func() error { return nil }); d >= 6*fanOutRTT {
		t.Errorf("MLogReg step took %v, want under 6 RTTs (%v) for its 5 round trips", d, 6*fanOutRTT)
	}
}
