package federated_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"exdra/internal/algo"
	"exdra/internal/engine"
	"exdra/internal/federated"
	"exdra/internal/fedrpc"
	"exdra/internal/fedtest"
	"exdra/internal/frame"
	"exdra/internal/matrix"
	"exdra/internal/netem"
	"exdra/internal/privacy"
)

// fanOutRTT is the emulated link of the fan-out tests: latency only, no
// bandwidth cap, so an operation's wall time counts its sequential round
// trips.
const fanOutRTT = 40 * time.Millisecond

// startFanOutCluster starts three workers behind the fan-out link, each
// with a data directory holding part.bin (a 4 x 3 matrix) and part.csv
// (a 4 x 2 frame), and warms the coordinator's connections so no timed
// operation pays for a dial.
func startFanOutCluster(t *testing.T) *fedtest.Cluster {
	t.Helper()
	dirs := make([]string, 3)
	for i := range dirs {
		dirs[i] = t.TempDir()
		if err := randMat(int64(40+i), 4, 3).WriteBinaryFile(dirs[i] + "/part.bin"); err != nil {
			t.Fatal(err)
		}
		fr := frame.MustNew(frame.FloatColumn("a", []float64{1, 2, 3, 4}),
			frame.IntColumn("b", []int64{5, 6, 7, int64(i)}))
		if err := fr.WriteCSVFile(dirs[i] + "/part.csv"); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := fedtest.Start(fedtest.Config{Workers: 3, BaseDirs: dirs, Netem: netem.Config{RTT: fanOutRTT}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	for _, addr := range cl.Addrs {
		if _, err := cl.Coord.Call(addr, fedrpc.Request{Type: fedrpc.Health}); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

// fastestOf runs op three times (reset between runs) and returns the
// fastest wall time, so a scheduling hiccup on a loaded machine does not
// read as an extra round trip.
func fastestOf(t *testing.T, op, reset func() error) time.Duration {
	t.Helper()
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
		if err := reset(); err != nil {
			t.Fatal(err)
		}
	}
	return best
}

// TestFanOutConstructorsTakeOneRoundTrip pins the fan-out of every
// per-worker constructor and of ClearAll: across three workers each
// finishes in under two round trips, where visiting the workers one after
// another takes at least three.
func TestFanOutConstructorsTakeOneRoundTrip(t *testing.T) {
	cl := startFanOutCluster(t)
	x := randMat(41, 30, 3)
	fr := frame.MustNew(frame.FloatColumn("a", x.SliceCols(0, 1).Data()))
	specs := func(name string) []federated.ReadSpec {
		out := make([]federated.ReadSpec, len(cl.Addrs))
		for i, addr := range cl.Addrs {
			out[i] = federated.ReadSpec{Addr: addr, Filename: name}
		}
		return out
	}
	clear := cl.Coord.ClearAll
	none := func() error { return nil }
	ops := []struct {
		name      string
		op, reset func() error
	}{
		{name: "Distribute", op: func() error {
			_, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
			return err
		}, reset: clear},
		{name: "DistributeFrame", op: func() error {
			_, err := federated.DistributeFrame(cl.Coord, fr, cl.Addrs, privacy.Public)
			return err
		}, reset: clear},
		{name: "ReadFrames", op: func() error {
			ff, err := federated.ReadFrames(cl.Coord, specs("part.csv"))
			if err == nil && (ff.Rows() != 12 || ff.Cols() != 2) {
				err = fmt.Errorf("read %dx%d frame, want 12x2", ff.Rows(), ff.Cols())
			}
			return err
		}, reset: clear},
		{name: "ReadRowPartitioned", op: func() error {
			fx, err := federated.ReadRowPartitioned(cl.Coord, specs("part.bin"))
			if err == nil && (fx.Rows() != 12 || fx.Cols() != 3) {
				err = fmt.Errorf("read %dx%d matrix, want 12x3", fx.Rows(), fx.Cols())
			}
			return err
		}, reset: clear},
		{name: "ClearAll", op: clear, reset: none},
	}
	for _, o := range ops {
		if d := fastestOf(t, o.op, o.reset); d >= 2*fanOutRTT {
			t.Errorf("%s over 3 workers took %v, want under 2 RTTs (%v)", o.name, d, 2*fanOutRTT)
		}
	}
	for i, w := range cl.Workers {
		if n := w.NumObjects(); n != 0 {
			t.Errorf("worker %d holds %d objects after ClearAll", i, n)
		}
	}
}

// TestFanOutFaultReclaimsAndReportsLowestIndex injects failures into
// fan-outs over three workers: a failure at one worker leaves no binding on
// the others, and with failures at workers 1 and 2 the operation reports
// worker 1's error.
func TestFanOutFaultReclaimsAndReportsLowestIndex(t *testing.T) {
	cl := startFanOutCluster(t)
	assertClean := func(what string) {
		t.Helper()
		for i, w := range cl.Workers {
			if n := w.NumObjects(); n != 0 {
				t.Errorf("%s: worker %d holds %d objects after the aborted operation", what, i, n)
			}
		}
	}

	// Worker-reported failures: sites 1 and 2 name files they lack.
	for _, name := range []string{"part.csv", "part.bin"} {
		specs := []federated.ReadSpec{
			{Addr: cl.Addrs[0], Filename: name},
			{Addr: cl.Addrs[1], Filename: "missing-1" + name[4:]},
			{Addr: cl.Addrs[2], Filename: "missing-2" + name[4:]},
		}
		var err error
		if name == "part.csv" {
			_, err = federated.ReadFrames(cl.Coord, specs)
		} else {
			_, err = federated.ReadRowPartitioned(cl.Coord, specs)
		}
		if err == nil || !strings.Contains(err.Error(), "missing-1") || strings.Contains(err.Error(), "missing-2") {
			t.Fatalf("read %s: error %v, want the failure of site 1", name, err)
		}
		assertClean("read " + name)
	}

	// Transport failures: worker 1 goes away mid-session, then worker 2.
	x := randMat(42, 30, 3)
	fr := frame.MustNew(frame.FloatColumn("a", x.SliceCols(0, 1).Data()))
	cl.Servers[1].Close()
	_, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err == nil || !strings.Contains(err.Error(), cl.Addrs[1]) {
		t.Fatalf("distribute: error %v, want the failure of %s", err, cl.Addrs[1])
	}
	assertClean("distribute")
	cl.Servers[2].Close()
	_, err = federated.DistributeFrame(cl.Coord, fr, cl.Addrs, privacy.Public)
	if err == nil || !strings.Contains(err.Error(), cl.Addrs[1]) || strings.Contains(err.Error(), cl.Addrs[2]) {
		t.Fatalf("distribute frame: error %v, want the failure of %s", err, cl.Addrs[1])
	}
	if n := cl.Workers[0].NumObjects(); n != 0 {
		t.Errorf("worker 0 holds %d objects after the aborted frame distribute", n)
	}
}

// TestReadColumnMismatchReclaims covers the check made after a parallel
// READ: sites whose column counts disagree fail the read, and every site's
// binding is reclaimed.
func TestReadColumnMismatchReclaims(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	if err := randMat(43, 4, 3).WriteBinaryFile(dirs[0] + "/part.bin"); err != nil {
		t.Fatal(err)
	}
	if err := randMat(44, 4, 2).WriteBinaryFile(dirs[1] + "/part.bin"); err != nil {
		t.Fatal(err)
	}
	cl, err := fedtest.Start(fedtest.Config{Workers: 2, BaseDirs: dirs})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = federated.ReadRowPartitioned(cl.Coord, []federated.ReadSpec{
		{Addr: cl.Addrs[0], Filename: "part.bin"},
		{Addr: cl.Addrs[1], Filename: "part.bin"},
	})
	if err == nil || !strings.Contains(err.Error(), "has 2 columns, want 3") {
		t.Fatalf("error %v, want a column mismatch", err)
	}
	for i, w := range cl.Workers {
		if n := w.NumObjects(); n != 0 {
			t.Errorf("worker %d holds %d objects after the failed read", i, n)
		}
	}
}

// TestRequestErrorSameFromSingleAndParallelCalls pins that a
// worker-reported per-request failure reads the same whether it came
// through a single call (Fetch) or a parallel batch (Consolidate).
func TestRequestErrorSameFromSingleAndParallelCalls(t *testing.T) {
	cl := startCluster(t, 1)
	const missing = 777777
	_, single := cl.Coord.Fetch(cl.Addrs[0], missing)
	fx, err := federated.FromMap(cl.Coord, federated.FedMap{Rows: 2, Cols: 2, Partitions: []federated.Partition{
		{Range: federated.Range{RowBeg: 0, RowEnd: 2, ColBeg: 0, ColEnd: 2}, Addr: cl.Addrs[0], DataID: missing},
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, parallel := fx.Consolidate()
	if single == nil || parallel == nil {
		t.Fatalf("GET of a missing object succeeded: single %v, parallel %v", single, parallel)
	}
	if single.Error() != parallel.Error() {
		t.Fatalf("error text differs:\n single:   %s\n parallel: %s", single, parallel)
	}
}

// TestMMChainMultiColumnUnevenPartitions checks a c-column federated
// mmchain over uneven row partitions on three workers: it matches the local
// kernel, and each column is bitwise equal to the one-column federated
// chain.
func TestMMChainMultiColumnUnevenPartitions(t *testing.T) {
	cl := startCluster(t, 3)
	x := randMat(45, 31, 6)
	var parts []*federated.Matrix
	for i, rows := range [][2]int{{0, 3}, {3, 23}, {23, 31}} {
		fp, err := federated.Distribute(cl.Coord, x.SliceRows(rows[0], rows[1]), cl.Addrs[i:i+1],
			federated.RowPartitioned, privacy.PrivateAggregation)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, fp)
	}
	fx, err := federated.RBindFed(parts[0], parts[1])
	if err == nil {
		fx, err = federated.RBindFed(fx, parts[2])
	}
	if err != nil {
		t.Fatal(err)
	}
	v := randMat(46, 6, 3)
	w := randMat(47, 31, 3)
	for _, wm := range []*matrix.Dense{nil, w} {
		got, err := fx.MMChain(v, wm)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualApprox(x.MMChain(v, wm), 1e-9) {
			t.Fatalf("weighted=%v: federated 3-column mmchain differs from local", wm != nil)
		}
		for j := 0; j < 3; j++ {
			var wj *matrix.Dense
			if wm != nil {
				wj = wm.SliceCols(j, j+1)
			}
			one, err := fx.MMChain(v.SliceCols(j, j+1), wj)
			if err != nil {
				t.Fatal(err)
			}
			if !one.EqualApprox(got.SliceCols(j, j+1), 0) {
				t.Fatalf("weighted=%v: column %d differs from the one-column chain", wm != nil, j)
			}
		}
	}
	if _, err := fx.MMChain(v, randMat(48, 31, 2)); err == nil {
		t.Fatal("mmchain accepted w with a different column count than v")
	}
}

// TestFanOutFreeBatchesPerWorker pins the batched engine.Free: freeing
// five federated matrices over three workers sends one rmvar batch per
// worker, all in parallel, so it finishes in under two round trips where a
// round trip per matrix takes five.
func TestFanOutFreeBatchesPerWorker(t *testing.T) {
	cl := startFanOutCluster(t)
	var ms []engine.Mat
	distribute := func() error {
		ms = ms[:0]
		for i := 0; i < 5; i++ {
			fx, err := federated.Distribute(cl.Coord, randMat(int64(50+i), 30, 3), cl.Addrs, federated.RowPartitioned, privacy.Public)
			if err != nil {
				return err
			}
			ms = append(ms, fx)
		}
		return nil
	}
	if err := distribute(); err != nil {
		t.Fatal(err)
	}
	free := func() error {
		engine.Free(ms...)
		for i, w := range cl.Workers {
			if n := w.NumObjects(); n != 0 {
				return fmt.Errorf("worker %d holds %d objects after Free", i, n)
			}
		}
		return nil
	}
	if d := fastestOf(t, free, distribute); d >= 2*fanOutRTT {
		t.Errorf("Free of 5 matrices over 3 workers took %v, want under 2 RTTs (%v)", d, 2*fanOutRTT)
	}
}

// TestFanOutAlgorithmsFreeIntermediates checks that MLogReg with Predict
// and KMeans with Assign leave nothing behind at the workers on a
// standalone coordinator: each worker's symbol table holds only X's
// partition afterwards.
func TestFanOutAlgorithmsFreeIntermediates(t *testing.T) {
	cl, err := fedtest.Start(fedtest.Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	x := randMat(61, 60, 4)
	y := matrix.NewDense(60, 1)
	for i := 0; i < 60; i++ {
		y.Set(i, 0, float64(1+i%3))
	}
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	assertOnlyX := func(what string) {
		t.Helper()
		for i, w := range cl.Workers {
			if n := w.NumObjects(); n != 1 {
				t.Errorf("%s: worker %d holds %d objects, want only X's partition", what, i, n)
			}
		}
	}
	res, err := algo.MLogReg(fx, y, algo.MLogRegConfig{MaxOuterIter: 2, MaxInnerIter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Predict(fx); err != nil {
		t.Fatal(err)
	}
	assertOnlyX("MLogReg+Predict")
	km, err := algo.KMeans(fx, algo.KMeansConfig{K: 3, MaxIterations: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := km.Assign(fx); err != nil {
		t.Fatal(err)
	}
	assertOnlyX("KMeans+Assign")
}
