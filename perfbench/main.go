// Command perfbench is the repository benchmark: it runs one workload
// against in-process federations built from this tree and prints the
// end-to-end metrics (untraced) or the per-layer metrics (traced) as one
// JSON line. Run it through run.sh, which builds it; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"exdra/internal/engine"
	"exdra/internal/fedtest"
	"exdra/internal/obs"
)

// A round of an untraced run repeats its set-up while the set-ups have
// taken less than setupBudget, up to maxSetups times.
const (
	setupBudget = 20 * time.Millisecond
	maxSetups   = 8
)

// probeRepeats is how many times a traced run calls a layer directly.
const probeRepeats = 3

// runner is one workload's inputs and reference outputs for one seed.
type runner interface {
	// setup generates the inputs and starts a fresh federation (timed).
	setup() (env, error)
	// reference computes, once per run, the outputs jobs are checked
	// against (untimed).
	reference(env) error
	// clients is the number of closed-loop clients.
	clients() int
	// slot is the length of one round of an untraced run: a fresh set-up,
	// its cold first job, and steady jobs for the rest of the slot.
	slot() time.Duration
}

// env is one running federation of a workload.
type env interface {
	// job runs one job and checks its output; an error fails the job.
	job(tr *tracer) error
	// probe times this workload's layers by calling them directly.
	probe(tr *tracer) error
	cluster() *fedtest.Cluster
	close()
}

var workloads = map[string]func(seed int64, dir string) runner{
	"p2-raw-lan":   newP2,
	"sessions-wan": newSessions,
}

// startCluster starts a federation that reports into its own fresh
// registry, never obs.Default().
func startCluster(cfg fedtest.Config) (*fedtest.Cluster, error) {
	cfg.Metrics = obs.New()
	return fedtest.Start(cfg)
}

// num is a metric value; a non-finite one (every job failed) encodes as
// null.
type num float64

func (n num) MarshalJSON() ([]byte, error) {
	f := float64(n)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(f)
}

type metric struct {
	Value num    `json:"value"`
	Unit  string `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: p2-raw-lan or sessions-wan")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "measured time in seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory for raw input files")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(mk, *name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run measures one workload and prints its result as the last line.
func run(mk func(int64, string) runner, name string, seed int64, d time.Duration, trace bool, workdir string) error {
	dir := fmt.Sprintf("%s/%s-%d", workdir, name, os.Getpid())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w := mk(seed, dir)
	measure := untraced
	if trace {
		measure = traced
	}
	res, err := measure(w, d)
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// steady runs the workload's clients closed-loop, each starting its next
// job when the previous one returns, until d has passed; jobs running at
// the deadline finish. It records the jobs in t and returns the wall time
// from start to the last completion.
func steady(e env, clients int, d time.Duration, tr *tracer, t *tally) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				err := e.job(tr)
				t.record(time.Since(t0), err)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// untraced measures the end-to-end metrics. A first, untimed round warms
// the process: heap grown from the OS, code paths run once, the reference
// outputs computed. The measured time d is then cut into rounds of about
// the workload's slot length. Each round sets up a fresh federation, runs
// its cold first job, and runs steady jobs until the round's share of d
// has passed. setup_s and first_job_s are medians over the rounds; the
// steady figures pool every round's steady jobs. Spreading the cold jobs
// over the whole run, rather than bunching them at its start, keeps one
// busy spell on a shared host from moving all of them at once.
func untraced(w runner, d time.Duration) (result, error) {
	rounds := int(math.Round(float64(d) / float64(w.slot())))
	if rounds < 1 {
		rounds = 1
	}
	var setupS, firstS []float64
	warm, first, jobs := &tally{}, &tally{}, &tally{}
	var wall time.Duration
	var start time.Time
	for r := -1; r < rounds; r++ {
		runtime.GC() // so no round inherits the last one's garbage
		if r == 0 {
			start = time.Now()
		}
		// A cheap set-up is repeated, keeping the last federation, so that
		// its median does not rest on one sample per round.
		var e env
		roundStart := time.Now()
		for n := 1; ; n++ {
			t0 := time.Now()
			var err error
			e, err = w.setup()
			if err != nil {
				return result{}, fmt.Errorf("setup: %w", err)
			}
			if r >= 0 {
				setupS = append(setupS, time.Since(t0).Seconds())
			}
			if r < 0 || n == maxSetups || time.Since(roundStart) >= setupBudget {
				break
			}
			e.close()
		}
		if err := w.reference(e); err != nil {
			e.close()
			return result{}, fmt.Errorf("reference: %w", err)
		}
		t1 := time.Now()
		err := e.job(nil)
		el := time.Since(t1)
		if r < 0 {
			warm.record(el, err)
			e.close()
			continue
		}
		first.record(el, err)
		firstS = append(firstS, el.Seconds())
		end := start.Add(d * time.Duration(r+1) / time.Duration(rounds))
		wall += steady(e, w.clients(), time.Until(end), nil, jobs)
		e.close()
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}

	all := &tally{}
	all.add(warm)
	all.add(first)
	all.add(jobs)
	tl := tail(jobs.latencies)
	v := map[string]float64{
		"setup_s":     median(setupS),
		"first_job_s": median(firstS),
		"job_s.p50":   median(jobs.latencies),
		"job_s.tail":  tl.Value,
		"jobs_per_s":  float64(jobs.completed()) / wall.Seconds(),
		"ok_frac":     1 - all.failedFrac(),
		"peak_rss_mb": rss,
	}
	fmt.Printf("setup_s      %10.6f s    median of %d set-ups\n", v["setup_s"], len(setupS))
	fmt.Printf("first_job_s  %10.6f s    median of %d cold first jobs\n", v["first_job_s"], len(firstS))
	fmt.Printf("job_s.p50    %10.6f s    median of %d steady jobs\n", v["job_s.p50"], len(jobs.latencies))
	fmt.Printf("job_s.tail   %10.6f s    %s\n", tl.Value, tl)
	fmt.Printf("jobs_per_s   %10.6f 1/s  %d completed in %.3f s of steady phases\n", v["jobs_per_s"], jobs.completed(), wall.Seconds())
	fmt.Printf("failed_frac  %10.6f      %d of %d jobs failed\n", all.failedFrac(), all.failed, all.attempted)
	fmt.Printf("peak_rss_mb  %10.3f MB   VmHWM\n", rss)
	if all.firstErr != nil {
		fmt.Printf("first failure: %v\n", all.firstErr)
	}
	return result{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed, Metrics: metrics(endToEnd, v)}, nil
}

// traced measures the per-layer metrics. On one fresh federation it runs
// the cold first job and then steady jobs for d/2 with the benchmark's
// spans and the engine hook on; counters are the registry delta over those
// jobs. It then runs steady jobs for d/2 untraced, for obs.trace_overhead,
// and finally times the layers it can call directly.
func traced(w runner, d time.Duration) (result, error) {
	e, err := w.setup()
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer e.close()
	if err := w.reference(e); err != nil {
		return result{}, fmt.Errorf("reference: %w", err)
	}
	cl := e.cluster()
	tr := newTracer()
	rd := startDelta(cl.Registry())
	lin0 := lineage(cl)

	engine.SetInstrumentation(tr.engineOp)
	first, tracedJobs, plainJobs := &tally{}, &tally{}, &tally{}
	t0 := time.Now()
	err = e.job(tr)
	first.record(time.Since(t0), err)
	steady(e, w.clients(), d/2, tr, tracedJobs)
	engine.SetInstrumentation(nil)
	rd.stop()
	lin1 := lineage(cl)

	steady(e, w.clients(), d/2, nil, plainJobs)
	if err := e.probe(tr); err != nil {
		return result{}, fmt.Errorf("probe: %w", err)
	}

	all := &tally{}
	all.add(first)
	all.add(tracedJobs)
	all.add(plainJobs)
	n := float64(first.attempted + tracedJobs.attempted)
	m := layerMetrics(tr, rd, n)
	hits, misses := lin1[0]-lin0[0], lin1[1]-lin0[1]
	if hits+misses > 0 {
		m["worker.lineage_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["obs.trace_overhead"] = median(tracedJobs.latencies) / median(plainJobs.latencies)
	fmt.Printf("per-layer base: %d traced jobs; worker.lineage_hit_ratio over %d hits + %d misses\n",
		int(n), hits, misses)
	if all.firstErr != nil {
		fmt.Printf("first failure: %v\n", all.firstErr)
	}

	return result{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed, Metrics: metrics(perLayer, m)}, nil
}

// lineage sums the workers' lineage-cache hits and misses.
func lineage(cl *fedtest.Cluster) [2]int64 {
	var s [2]int64
	for _, w := range cl.Workers {
		h, m := w.Lineage.Stats()
		s[0] += h
		s[1] += m
	}
	return s
}

// metricSpec is one metric as BENCHMARK.json lists it.
type metricSpec struct{ name, unit string }

// metrics reports every metric of list, taking values from vals; a metric
// without a value reads 0.
func metrics(list []metricSpec, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(list))
	for _, l := range list {
		out[l.name] = metric{num(vals[l.name]), l.unit}
	}
	return out
}

// endToEnd are the untraced metrics. ok_frac is 1 - failed_frac: the
// result line's attempted and failed fields carry the failures themselves.
var endToEnd = []metricSpec{
	{"setup_s", "s"}, {"first_job_s", "s"}, {"job_s.p50", "s"}, {"job_s.tail", "s"},
	{"jobs_per_s", "1/s"}, {"ok_frac", "frac"}, {"peak_rss_mb", "MB"},
}

// Request types as fedrpc names them in its counters.
var reqTypes = []struct{ metric, wire string }{
	{"read", "READ"}, {"put", "PUT"}, {"get", "GET"},
	{"exec_inst", "EXEC_INST"}, {"exec_udf", "EXEC_UDF"}, {"clear", "CLEAR"},
}

var engineOps = []string{"mmchain", "tsmm", "mm", "tmm", "agg", "col_agg", "binary"}

var rpcPhases = []string{"queue", "encode", "network", "execute", "decode"}

var perLayer = func() []metricSpec {
	ls := []metricSpec{
		{"fedserve.open_s", "s"}, {"fedserve.close_s", "s"},
		{"fedserve.pool_waits", "count"}, {"fedserve.pool_dials", "count"},
		{"fedserve.rejections", "count"},
		{"pipeline.p2_s", "s"}, {"algo.train_s", "s"},
		{"matrix.local_job_s", "s"},
		{"engine.ops_per_job", "count"},
	}
	for _, op := range engineOps {
		ls = append(ls, metricSpec{"engine.op_s." + op, "s"})
	}
	ls = append(ls,
		metricSpec{"federated.read_s", "s"}, metricSpec{"federated.distribute_s", "s"},
		metricSpec{"federated.retries", "count"}, metricSpec{"federated.transport_errors", "count"},
		metricSpec{"fedrpc.calls_per_job", "count"})
	for _, rt := range reqTypes {
		ls = append(ls, metricSpec{"fedrpc.requests_per_job." + rt.metric, "count"})
	}
	ls = append(ls, metricSpec{"fedrpc.mb_out_per_job", "MB"}, metricSpec{"fedrpc.mb_in_per_job", "MB"})
	for _, p := range rpcPhases {
		ls = append(ls, metricSpec{"fedrpc.phase_sum_s." + p, "s"})
	}
	ls = append(ls, metricSpec{"fedrpc.errors", "count"})
	for _, rt := range reqTypes {
		ls = append(ls, metricSpec{"worker.handle_s." + rt.metric, "s"})
	}
	return append(ls,
		metricSpec{"worker.inst_s", "s"}, metricSpec{"worker.lineage_hit_ratio", "ratio"},
		metricSpec{"worker.errors", "count"},
		metricSpec{"frame.read_csv_s", "s"}, metricSpec{"transform.encode_s", "s"},
		metricSpec{"obs.trace_overhead", "ratio"})
}()

// layerMetrics derives the per-layer metrics from the traced spans and the
// registry delta over n jobs. Span times are medians per call; counts,
// bytes and summed seconds are per job. A layer the workload never reaches
// reads 0.
func layerMetrics(tr *tracer, rd *regDelta, n float64) map[string]float64 {
	m := map[string]float64{
		"fedserve.open_s":        tr.spanMedian("fedserve.open"),
		"fedserve.close_s":       tr.spanMedian("fedserve.close"),
		"pipeline.p2_s":          tr.spanMedian("pipeline.p2"),
		"algo.train_s":           tr.spanMedian("algo.train"),
		"matrix.local_job_s":     tr.spanMedian("matrix.local_job"),
		"federated.read_s":       tr.spanMedian("federated.read"),
		"federated.distribute_s": tr.spanMedian("federated.distribute"),
		"frame.read_csv_s":       tr.spanMedian("frame.read_csv"),
		"transform.encode_s":     tr.spanMedian("transform.encode"),
	}
	perJob := func(v float64) float64 { return v / n }
	for metric, counter := range map[string]string{
		"fedserve.pool_waits":        "serve.pool.waits",
		"fedserve.pool_dials":        "serve.pool.dials",
		"fedserve.rejections":        "serve.rejections",
		"federated.retries":          "fed.retries",
		"federated.transport_errors": "fed.transport_errors",
		"fedrpc.calls_per_job":       "rpc.client.calls",
		"fedrpc.errors":              "rpc.client.errors",
		"worker.errors":              "worker.errors",
	} {
		m[metric] = perJob(float64(rd.counter(counter)))
	}
	for _, rt := range reqTypes {
		m["fedrpc.requests_per_job."+rt.metric] = perJob(float64(rd.counter("rpc.client.requests." + rt.wire)))
		m["worker.handle_s."+rt.metric] = perJob(rd.histSum("worker.handle_seconds." + rt.wire))
	}
	m["fedrpc.mb_out_per_job"] = perJob(float64(rd.counter("rpc.client.bytes_out")) / 1e6)
	m["fedrpc.mb_in_per_job"] = perJob(float64(rd.counter("rpc.client.bytes_in")) / 1e6)
	for _, p := range rpcPhases {
		m["fedrpc.phase_sum_s."+p] = perJob(rd.histSum("rpc.client.phase." + p))
	}
	m["worker.inst_s"] = perJob(rd.histSumPrefix("worker.inst_seconds."))
	ops, opS := tr.ops()
	m["engine.ops_per_job"] = perJob(float64(ops))
	for _, op := range engineOps {
		m["engine.op_s."+op] = perJob(opS[op])
	}
	return m
}
