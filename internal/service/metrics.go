package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Metrics is an in-process metric registry rendered as plain text on
// /metrics (Prometheus exposition style, no external dependencies).
// Counters, gauges and histograms are created on first use and are safe
// for concurrent access.
type Metrics struct {
	mu    sync.Mutex
	names []string // registration order for stable rendering
	items map[string]any
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{items: make(map[string]any)}
}

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// counterFunc and gaugeFunc are metrics computed when /metrics renders,
// for values whose state lives elsewhere (the run queue, membership, the
// fault engine) and would otherwise be mirrored into a Gauge by hand.
type (
	counterFunc func() int64
	gaugeFunc   func() int64
)

// Histogram accumulates observations into cumulative buckets (upper
// bounds in seconds, +Inf implied), plus a running sum and count.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // len(bounds)+1, last is +Inf
	sum    float64
	n      int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// DefBuckets spans 100 µs .. ~100 s, matching the range from a cached
// point lookup to a long cold sweep.
var DefBuckets = []float64{0.0001, 0.001, 0.01, 0.1, 0.5, 1, 5, 10, 30, 60, 120}

func register[T any](m *Metrics, name string, mk func() T) T {
	m.mu.Lock()
	defer m.mu.Unlock()
	if it, ok := m.items[name]; ok {
		v, ok := it.(T)
		if !ok {
			panic(fmt.Sprintf("service: metric %q re-registered with a different type", name))
		}
		return v
	}
	v := mk()
	m.items[name] = v
	m.names = append(m.names, name)
	return v
}

// Counter returns (registering if needed) the named counter.
func (m *Metrics) Counter(name string) *Counter {
	return register(m, name, func() *Counter { return &Counter{} })
}

// Gauge returns (registering if needed) the named gauge.
func (m *Metrics) Gauge(name string) *Gauge {
	return register(m, name, func() *Gauge { return &Gauge{} })
}

// CounterFunc registers a counter whose value f computes at render time.
// f runs outside the registry lock and must be safe for concurrent use.
func (m *Metrics) CounterFunc(name string, f func() int64) {
	register(m, name, func() counterFunc { return f })
}

// GaugeFunc registers a gauge whose value f computes at render time,
// like CounterFunc.
func (m *Metrics) GaugeFunc(name string, f func() int64) {
	register(m, name, func() gaugeFunc { return f })
}

// Histogram returns (registering if needed) the named histogram with
// DefBuckets bounds.
func (m *Metrics) Histogram(name string) *Histogram {
	return register(m, name, func() *Histogram {
		return &Histogram{bounds: DefBuckets, counts: make([]int64, len(DefBuckets)+1)}
	})
}

// WriteText renders every metric in registration order.
func (m *Metrics) WriteText(w io.Writer) {
	m.mu.Lock()
	names := append([]string(nil), m.names...)
	items := make(map[string]any, len(names))
	for _, n := range names {
		items[n] = m.items[n]
	}
	m.mu.Unlock()

	for _, name := range names {
		switch it := items[name].(type) {
		case *Counter:
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, it.Value())
		case *Gauge:
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, it.Value())
		case counterFunc:
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, it())
		case gaugeFunc:
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, it())
		case *Histogram:
			it.mu.Lock()
			fmt.Fprintf(w, "# TYPE %s histogram\n", name)
			var cum int64
			for i, b := range it.bounds {
				cum += it.counts[i]
				fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b, cum)
			}
			cum += it.counts[len(it.bounds)]
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
			fmt.Fprintf(w, "%s_sum %g\n", name, it.sum)
			fmt.Fprintf(w, "%s_count %d\n", name, it.n)
			it.mu.Unlock()
		}
	}
}
