package main

import (
	"sync"
	"time"
)

// tracer records the benchmark's own spans around calls into the
// program's layers, plus the engine's per-operation timings through its
// public engine.SetInstrumentation hook. The program itself is not
// instrumented further. A nil *tracer is the untraced mode: span runs the
// call bare.
type tracer struct {
	mu    sync.Mutex
	spans map[string][]float64 // span name -> durations in seconds
	opN   map[string]int64     // engine op -> count
	opS   map[string]float64   // engine op -> summed seconds
}

func newTracer() *tracer {
	return &tracer{spans: map[string][]float64{}, opN: map[string]int64{}, opS: map[string]float64{}}
}

// span times f under name.
func (t *tracer) span(name string, f func() error) error {
	if t == nil {
		return f()
	}
	start := time.Now()
	err := f()
	d := time.Since(start)
	t.mu.Lock()
	t.spans[name] = append(t.spans[name], d.Seconds())
	t.mu.Unlock()
	return err
}

// engineOp is the engine instrumentation hook; it runs on whichever
// goroutine executed the operation.
func (t *tracer) engineOp(op string, d time.Duration) {
	t.mu.Lock()
	t.opN[op]++
	t.opS[op] += d.Seconds()
	t.mu.Unlock()
}

// spanMedian is the median duration of the named span, or 0 when the run
// never entered it.
func (t *tracer) spanMedian(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans[name]) == 0 {
		return 0
	}
	return median(t.spans[name])
}

// ops returns the engine operation count and per-op summed seconds.
func (t *tracer) ops() (int64, map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, c := range t.opN {
		n += c
	}
	s := make(map[string]float64, len(t.opS))
	for op, v := range t.opS {
		s[op] = v
	}
	return n, s
}
