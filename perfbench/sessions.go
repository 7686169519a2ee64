package main

import (
	"fmt"
	"math"
	"time"

	"exdra/internal/algo"
	"exdra/internal/data"
	"exdra/internal/federated"
	"exdra/internal/fedserve"
	"exdra/internal/fedtest"
	"exdra/internal/matrix"
	"exdra/internal/netem"
	"exdra/internal/privacy"
)

// sessions-wan: exdrad's production path over the emulated WAN. Two
// closed-loop clients share one fedserve.Service over the cluster's
// federated.Fleet, configured like exdrad's defaults. Each job opens a
// session, distributes the training matrix, trains MLogReg with fixed
// iteration caps, and closes the session (a namespace-scoped CLEAR).
const (
	sessRows    = 2000
	sessCols    = 20
	sessClasses = 4
	sessClients = 2
	sessWorkers = 2
	// sessSlot gives each round, after its 1.25 s cold first job, some
	// 7 steady jobs per client.
	sessSlot = 10 * time.Second
)

// sessTrain fixes the iteration counts: a negative tolerance disables the
// gradient-norm exit, so every job makes the same calls.
var sessTrain = algo.MLogRegConfig{MaxOuterIter: 1, MaxInnerIter: 3, Tolerance: -1}

type sessRun struct {
	seed int64
	ref  *matrix.Dense // weights of the solo reference run
}

type sessEnv struct {
	run  *sessRun
	cl   *fedtest.Cluster
	svc  *fedserve.Service
	x, y *matrix.Dense
}

func newSessions(seed int64, _ string) runner { return &sessRun{seed: seed} }

func (r *sessRun) clients() int        { return sessClients }
func (r *sessRun) slot() time.Duration { return sessSlot }

// setup generates the training data and starts the WAN federation and the
// service. exdrad's defaults: pool 4, window 8, 64 sessions, 4 in-flight
// batches per session, 3 attempts per call, recovery on.
func (r *sessRun) setup() (env, error) {
	x, y := data.MultiClass(r.seed, sessRows, sessCols, sessClasses)
	cl, err := startCluster(fedtest.Config{
		Workers: sessWorkers, Netem: netem.WAN(), PoolSize: 4, Window: 8,
	})
	if err != nil {
		return nil, err
	}
	svc := fedserve.New(cl.Fleet, fedserve.Config{
		MaxSessions: 64,
		MaxInFlight: 4,
		IdleTimeout: 15 * time.Minute,
		Retry:       federated.RetryPolicy{Attempts: 3, Backoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second},
		Recover:     true,
		Metrics:     cl.Registry(),
	})
	return &sessEnv{run: r, cl: cl, svc: svc, x: x, y: y}, nil
}

// reference trains once through a solo Coordinator on a separate
// loopback federation with the same partitioning; the link does not
// change the arithmetic, so service jobs must match it bit for bit.
func (r *sessRun) reference(e env) error {
	if r.ref != nil {
		return nil
	}
	se := e.(*sessEnv)
	cl, err := startCluster(fedtest.Config{Workers: sessWorkers})
	if err != nil {
		return err
	}
	defer cl.Close()
	fx, err := federated.Distribute(cl.Coord, se.x, cl.Addrs, federated.RowPartitioned, privacy.PrivateAggregation)
	if err != nil {
		return fmt.Errorf("sessions reference: %w", err)
	}
	res, err := algo.MLogReg(fx, se.y, sessTrain)
	if err != nil {
		return fmt.Errorf("sessions reference: %w", err)
	}
	r.ref = res.Weights
	return nil
}

func (e *sessEnv) cluster() *fedtest.Cluster { return e.cl }

func (e *sessEnv) close() {
	e.svc.Close()
	e.cl.Close()
}

func (e *sessEnv) job(tr *tracer) error {
	var sess *fedserve.Session
	err := tr.span("fedserve.open", func() (err error) {
		sess, err = e.svc.Open()
		return err
	})
	if err != nil {
		return err
	}
	w, err := e.train(sess, tr)
	_ = tr.span("fedserve.close", func() error { sess.Close(); return nil })
	if err != nil {
		return err
	}
	return sameBits(w, e.run.ref)
}

// train runs one admitted batch: distribute, then MLogReg.
func (e *sessEnv) train(sess *fedserve.Session, tr *tracer) (*matrix.Dense, error) {
	release, err := sess.Begin(int64(sessRows * sessCols * 8))
	if err != nil {
		return nil, err
	}
	defer release()
	var fx *federated.Matrix
	if err := tr.span("federated.distribute", func() (err error) {
		fx, err = federated.Distribute(sess.Coordinator(), e.x, e.cl.Addrs, federated.RowPartitioned, privacy.PrivateAggregation)
		return err
	}); err != nil {
		return nil, err
	}
	var res *algo.MLogRegResult
	if err := tr.span("algo.train", func() (err error) {
		res, err = algo.MLogReg(fx, e.y, sessTrain)
		return err
	}); err != nil {
		return nil, err
	}
	return res.Weights, nil
}

// probe times the same training on the local matrix.
func (e *sessEnv) probe(tr *tracer) error {
	for i := 0; i < probeRepeats; i++ {
		if err := tr.span("matrix.local_job", func() error {
			_, err := algo.MLogReg(e.x, e.y, sessTrain)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// sameBits reports whether got equals want bit for bit.
func sameBits(got, want *matrix.Dense) error {
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	g, w := got.Data(), want.Data()
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			return fmt.Errorf("element %d is %v, want %v", i, g[i], w[i])
		}
	}
	return nil
}
