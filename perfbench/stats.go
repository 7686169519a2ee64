package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"exdra/internal/obs"
)

// tailBeyond is how many samples must lie above the reported tail
// percentile, so that the tail is never a single outlier.
const tailBeyond = 10

// median returns the median of xs (the mean of the middle pair for an even
// count) without reordering xs. It returns NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailStat is the highest percentile of a sample that leaves at least
// tailBeyond samples above it.
type tailStat struct {
	Value      float64 // the sample at that rank
	Percentile float64 // nearest-rank percentile, in (0, 100]
	Samples    int     // sample count the percentile is taken over
	Beyond     int     // samples ranked above it
}

// tail picks the order statistic s[i] with the largest i such that
// n-1-i >= tailBeyond, and names it by its nearest-rank percentile
// 100*(i+1)/n. With fewer than tailBeyond+1 samples no rank qualifies, and
// the maximum is returned with Beyond = 0 so the report shows it.
func tail(xs []float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{Value: math.NaN()}
	}
	s := sortedCopy(xs)
	i := n - 1 - tailBeyond
	if i < 0 {
		i = n - 1
	}
	return tailStat{Value: s[i], Percentile: 100 * float64(i+1) / float64(n), Samples: n, Beyond: n - 1 - i}
}

func (t tailStat) String() string {
	return fmt.Sprintf("p%.1f of %d samples (%d beyond)", t.Percentile, t.Samples, t.Beyond)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tally accounts jobs: every attempt counts, and a job fails when it
// returns an error or its output check does. A failed job's latency is
// recorded as +Inf, so it counts as missing any latency percentile rather
// than vanishing from the sample. Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  error
	latencies []float64 // seconds; +Inf for failed jobs
}

func (t *tally) record(d time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
		t.latencies = append(t.latencies, math.Inf(1))
		return
	}
	t.latencies = append(t.latencies, d.Seconds())
}

// add folds another tally's counts (not its latencies) into t.
func (t *tally) add(o *tally) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func (t *tally) completed() int { return t.attempted - t.failed }

func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// regDelta is what one run's own registry recorded between two points.
// It never reads obs.Default(): every cluster the benchmark starts reports
// into a fresh obs.Registry, so parallel activity elsewhere in the process
// cannot leak into a run's counts.
type regDelta struct {
	reg  *obs.Registry
	base obs.Snapshot
	d    obs.Snapshot
}

func startDelta(reg *obs.Registry) *regDelta {
	return &regDelta{reg: reg, base: reg.Snapshot()}
}

// stop freezes the delta at the registry's current state.
func (r *regDelta) stop() { r.d = r.reg.Snapshot().Diff(r.base) }

func (r *regDelta) counter(name string) int64 { return r.d.Counters[name] }

// histSum is the summed observations of one histogram, in seconds.
func (r *regDelta) histSum(name string) float64 { return r.d.Histograms[name].Sum }

// histSumPrefix sums every histogram whose name starts with prefix.
func (r *regDelta) histSumPrefix(prefix string) float64 {
	var s float64
	for name, h := range r.d.Histograms {
		if strings.HasPrefix(name, prefix) {
			s += h.Sum
		}
	}
	return s
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
