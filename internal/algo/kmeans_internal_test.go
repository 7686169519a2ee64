package algo

import (
	"math/rand"
	"testing"
	"time"

	"exdra/internal/federated"
	"exdra/internal/fedrpc"
	"exdra/internal/fedtest"
	"exdra/internal/matrix"
	"exdra/internal/netem"
	"exdra/internal/privacy"
)

// TestDeferredKMeansRoundTrips pins the round trips of K-Means over a link
// with latency only. One kmeansStep queues its element-wise chain and
// sends it with Sum's batch, then makes ColAgg, TMatMul and Free: at most
// four round trips per worker. Assign queues its chain and takes the
// assignment in one.
func TestDeferredKMeansRoundTrips(t *testing.T) {
	const rtt = 40 * time.Millisecond
	cl, err := fedtest.Start(fedtest.Config{Workers: 3, Netem: netem.Config{RTT: rtt}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, addr := range cl.Addrs {
		if _, err := cl.Coord.Call(addr, fedrpc.Request{Type: fedrpc.Health}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(80))
	x := matrix.Randn(rng, 60, 4, 0, 1)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	c := x.SliceRows(0, 3)
	xsq := x.Agg(matrix.AggSumSq)
	fastest := func(op func()) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			op()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	var want, got *matrix.Dense
	want, _ = kmeansStep(x, c, xsq)
	if d := fastest(func() { got, _ = kmeansStep(fx, c, xsq) }); d >= 5*rtt {
		t.Errorf("kmeansStep took %v, want under 5 RTTs (%v) for its 4 round trips", d, 5*rtt)
	}
	if !got.EqualApprox(want, 1e-9) {
		t.Fatal("federated kmeansStep differs from local")
	}
	km := &KMeansResult{Centroids: c}
	var assign *matrix.Dense
	if d := fastest(func() { assign, err = km.Assign(fx) }); err != nil || d >= 2*rtt {
		t.Errorf("Assign took %v (error %v), want under 2 RTTs (%v) for its 1 round trip", d, err, 2*rtt)
	}
	if local, _ := km.Assign(x); !assign.EqualApprox(local, 0) {
		t.Fatal("federated Assign differs from local")
	}
	for i, w := range cl.Workers {
		if n := w.NumObjects(); n != 1 {
			t.Errorf("worker %d holds %d objects, want only X's partition", i, n)
		}
	}
}
