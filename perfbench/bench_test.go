package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"exdra/internal/federated"
	"exdra/internal/fedtest"
	"exdra/internal/matrix"
	"exdra/internal/obs"
	"exdra/internal/privacy"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		value, pct float64
		beyond     int
	}{
		{n: 50, value: 40, pct: 80, beyond: 10},
		{n: 100, value: 90, pct: 90, beyond: 10},
		{n: 11, value: 1, pct: 100.0 / 11, beyond: 10},
		// Too few samples for any rank to have ten beyond: the maximum,
		// reported as such.
		{n: 10, value: 10, pct: 100, beyond: 0},
		{n: 1, value: 1, pct: 100, beyond: 0},
	} {
		got := tail(seq(tc.n))
		if got.Value != tc.value || math.Abs(got.Percentile-tc.pct) > 1e-12 ||
			got.Beyond != tc.beyond || got.Samples != tc.n {
			t.Errorf("tail of %d samples = %+v, want value %v at p%v with %d beyond",
				tc.n, got, tc.value, tc.pct, tc.beyond)
		}
	}
	if got := tail(nil); !math.IsNaN(got.Value) {
		t.Errorf("tail of no samples = %v, want NaN", got.Value)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestTallyCountsFailedJobs(t *testing.T) {
	var a tally
	a.record(time.Second, nil)
	a.record(2*time.Second, errors.New("wrong output"))
	a.record(3*time.Second, nil)
	if a.attempted != 3 || a.failed != 1 || a.completed() != 2 {
		t.Fatalf("attempted/failed/completed = %d/%d/%d, want 3/1/2", a.attempted, a.failed, a.completed())
	}
	if got := a.failedFrac(); got != 1.0/3 {
		t.Errorf("failedFrac = %v, want 1/3", got)
	}
	// A failed job counts as slower than any completed one.
	if got := tail(a.latencies); !math.IsInf(got.Value, 1) {
		t.Errorf("max latency with a failure = %v, want +Inf", got.Value)
	}
	if got := median(a.latencies); got != 3 {
		t.Errorf("median with a failure = %v, want 3", got)
	}

	var all tally
	all.add(&a)
	all.add(&tally{attempted: 2})
	if all.attempted != 5 || all.failed != 1 || all.firstErr == nil {
		t.Errorf("folded tally = %d attempted, %d failed, err %v", all.attempted, all.failed, all.firstErr)
	}
	var empty tally
	if empty.failedFrac() != 0 {
		t.Error("failedFrac of no jobs is not 0")
	}
}

// A run's counters come from its own registry: what the federation does
// lands there, and what other code reports into obs.Default() does not.
func TestRegistryDeltaIsTheRunsOwn(t *testing.T) {
	cl, err := startCluster(fedtest.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Registry() == obs.Default() {
		t.Fatal("benchmark cluster reports into obs.Default()")
	}
	def := obs.Default()
	defBase := def.Snapshot()
	rd := startDelta(cl.Registry())
	def.Counter("rpc.client.calls").Add(1000)

	x := matrix.NewDense(10, 3)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.Free(); err != nil {
		t.Fatal(err)
	}
	rd.stop()

	calls := rd.counter("rpc.client.calls")
	if calls <= 0 || calls >= 1000 {
		t.Fatalf("run registry counted %d calls, want the federation's own few", calls)
	}
	if rd.counter("rpc.client.requests.PUT") != 2 {
		t.Errorf("run registry counted %d PUTs, want 2", rd.counter("rpc.client.requests.PUT"))
	}
	if got := def.Snapshot().Diff(defBase).Counters["rpc.client.calls"]; got != 1000 {
		t.Errorf("obs.Default() moved by %d calls, want only the 1000 added outside the run", got)
	}

	// Per-job metrics divide the run's counts by the job count.
	m := layerMetrics(newTracer(), rd, 2)
	if m["fedrpc.calls_per_job"] != float64(calls)/2 || m["fedrpc.requests_per_job.put"] != 1 {
		t.Errorf("per-job calls %v, puts %v; want %v and 1", m["fedrpc.calls_per_job"],
			m["fedrpc.requests_per_job.put"], float64(calls)/2)
	}
}

// BENCHMARK.json and the program must name the same workloads and
// metrics with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
	for _, set := range []struct {
		json []struct{ Name, Unit string }
		prog []metricSpec
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(set.json) != len(set.prog) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(set.json), len(set.prog))
			continue
		}
		for i, m := range set.json {
			if m.Name != set.prog[i].name || m.Unit != set.prog[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]",
					i, m.Name, m.Unit, set.prog[i].name, set.prog[i].unit)
			}
		}
	}
}

// fakeEnv is a job that records one span and takes about a millisecond.
type fakeEnv struct{}

func (fakeEnv) job(tr *tracer) error {
	return tr.span("fake", func() error { time.Sleep(time.Millisecond); return nil })
}
func (fakeEnv) probe(*tracer) error       { return nil }
func (fakeEnv) cluster() *fedtest.Cluster { return nil }
func (fakeEnv) close()                    {}

// Two closed-loop clients share one tally and one tracer.
func TestSteadyClientsShareTallyAndTracer(t *testing.T) {
	tr := newTracer()
	jobs := &tally{}
	wall := steady(fakeEnv{}, 2, 50*time.Millisecond, tr, jobs)
	if jobs.attempted < 2 || jobs.failed != 0 || len(jobs.latencies) != jobs.attempted {
		t.Fatalf("attempted %d, failed %d, %d latencies", jobs.attempted, jobs.failed, len(jobs.latencies))
	}
	if got := len(tr.spans["fake"]); got != jobs.attempted {
		t.Errorf("%d spans for %d jobs", got, jobs.attempted)
	}
	if wall < 50*time.Millisecond {
		t.Errorf("steady returned after %v, before its deadline", wall)
	}
}
