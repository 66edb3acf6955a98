// Package obs is the stdlib-only observability subsystem of FexIoT: atomic
// counters and gauges, lock-cheap histograms, and lightweight span tracing
// behind a Registry, exported three ways — Prometheus text format over HTTP
// (/metrics), a JSON snapshot (/statusz), and net/http/pprof wiring.
//
// The design has one hard requirement inherited from the dense kernels it
// instruments: with observability disabled the overhead must be
// unmeasurable. Every handle type (*Counter, *Gauge, *Histogram, Span) is
// nil-safe — methods on a nil receiver return immediately — and every
// Registry constructor on a nil *Registry returns a nil handle. Hot paths
// therefore build their metric handles unconditionally at setup time and
// call them unconditionally; when no registry is configured the entire
// instrumentation collapses to a nil check per call site.
//
//	reg := obs.NewRegistry()                  // or nil to disable
//	dur := reg.Histogram("round_seconds", "round latency", obs.DefBuckets)
//	sp := obs.StartSpan(dur)
//	...
//	sp.End()                                  // observes the duration
//
// Updates are atomic (counters and gauges are single atomic words,
// histogram buckets are independent atomic counters), so concurrent
// writers never contend on a mutex; the mutex in Registry guards only
// registration and rendering, which are cold paths.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricKind tags the Prometheus type of a registered family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1. Safe on a nil receiver (no-op).
func (c *Counter) Inc() { c.Add(1) }

// Add increments the counter by n. Safe on a nil receiver (no-op).
// Negative deltas are ignored: counters only go up.
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value reports the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Safe on a nil receiver (no-op).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by delta via CAS. Safe on a nil receiver.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reports the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefBuckets are the default histogram buckets, tuned for operation
// durations in seconds from sub-millisecond kernels to multi-minute rounds.
var DefBuckets = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// Histogram counts observations into fixed buckets. Observe is lock-free:
// one atomic add on the bucket, one on the count, and a CAS loop on the
// float sum.
type Histogram struct {
	bounds []float64 // ascending upper bounds, +Inf implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    Gauge
}

// Observe records v. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count reports the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of all observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// snapshot returns cumulative bucket counts aligned with bounds plus +Inf.
func (h *Histogram) snapshot() []int64 {
	out := make([]int64, len(h.bounds)+1)
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// series is one label-value combination of a family, holding exactly one of
// the three handle types.
type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

// family is one named metric with its help text, type and series.
type family struct {
	name       string
	help       string
	kind       metricKind
	labelNames []string
	buckets    []float64 // histograms only
	mu         sync.Mutex
	series     []*series          // insertion order; sorted at render time
	byKey      map[string]*series // joined label values → series
}

// Registry holds a process's metric families. The zero value is not usable;
// call NewRegistry. A nil *Registry is the disabled state: every
// constructor returns a nil handle and every render produces empty output.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	start    time.Time
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}, start: time.Now()}
}

// lookup returns the family for name, creating it on first use, and panics
// on a kind or label-arity mismatch — two call sites disagreeing about what
// a metric is can only be a programming error.
func (r *Registry) lookup(name, help string, kind metricKind, labelNames []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s/%d labels, was %s/%d",
				name, kind, len(labelNames), f.kind, len(f.labelNames)))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind,
		labelNames: append([]string(nil), labelNames...),
		buckets:    append([]float64(nil), buckets...),
		byKey:      map[string]*series{}}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// with returns the series for the given label values, creating it on first
// use. Caller must pass exactly len(labelNames) values.
func (f *family) with(values []string) *series {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q called with %d label values, declared %d",
			f.name, len(values), len(f.labelNames)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &series{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		s.counter = &Counter{}
	case kindGauge:
		s.gauge = &Gauge{}
	case kindHistogram:
		h := &Histogram{bounds: f.buckets}
		h.counts = make([]atomic.Int64, len(f.buckets)+1)
		s.hist = h
	}
	f.byKey[key] = s
	f.series = append(f.series, s)
	return s
}

// Counter returns the registered counter, creating it on first use.
// Returns nil (a valid no-op handle) on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, nil, nil).with(nil).counter
}

// Gauge returns the registered gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, nil, nil).with(nil).gauge
}

// Histogram returns the registered histogram, creating it on first use.
// Nil or empty buckets select DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return r.lookup(name, help, kindHistogram, nil, buckets).with(nil).hist
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family for name.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.lookup(name, help, kindCounter, labelNames, nil)}
}

// With returns the counter for the given label values (nil on a nil vec).
func (v *CounterVec) With(labelValues ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.with(labelValues).counter
}

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family for name. Nil or empty
// buckets select DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.lookup(name, help, kindHistogram, labelNames, buckets)}
}

// With returns the histogram for the given label values (nil on a nil vec).
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.with(labelValues).hist
}

// Span measures the duration of one operation into a histogram. The zero
// Span (returned for a nil histogram) is a no-op and never reads the clock.
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan begins timing an operation whose duration lands in h at End.
// A nil histogram yields a no-op span that never touches the clock, so the
// disabled cost is a nil check.
func StartSpan(h *Histogram) Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, start: time.Now()}
}

// End observes the span's duration in seconds. Safe on the zero Span.
func (s Span) End() {
	if s.h == nil {
		return
	}
	s.h.Observe(time.Since(s.start).Seconds())
}
