package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; all methods are safe for concurrent use (one atomic add each).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a point-in-time integer metric (queue depth, entry count). The
// zero value is ready to use; all methods are safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// atomicFloat accumulates a float64 with compare-and-swap adds.
type atomicFloat struct {
	bits atomic.Uint64
}

// Add accumulates v.
func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the accumulated sum.
func (f *atomicFloat) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram is a fixed-bucket distribution metric. Bucket i counts
// observations v with bounds[i-1] < v <= bounds[i]; the final implicit
// bucket counts v > bounds[len-1]. Observe is lock-free (one atomic add
// plus a CAS-loop sum update).
type Histogram struct {
	bounds []float64 // ascending upper bounds, immutable after creation
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomicFloat
}

// newHistogram returns a histogram over the given ascending upper bounds.
func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// snapshot copies the histogram into plain values.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    h.sum.Value(),
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// ExpBuckets returns n ascending bucket bounds starting at start and
// growing by factor: start, start*factor, ... — the standard shape for
// latency and energy series.
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// LatencyBuckets is the default bucket set for modeled-latency series
// (ns): 16 buckets from 50 ns to ~82 ms.
func LatencyBuckets() []float64 { return ExpBuckets(50, 2.5, 16) }

// EnergyBuckets is the default bucket set for modeled-energy series (nJ):
// 16 buckets from 1 nJ to ~1 J.
func EnergyBuckets() []float64 { return ExpBuckets(1, 4, 16) }

// Registry is a named-series metrics registry. Series are created on
// first lookup and live forever; hot paths should resolve their series
// once and keep the pointer, making steady-state updates pure atomics.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later callers' bounds are ignored).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[name]; ok {
		return h
	}
	h = newHistogram(bounds)
	r.histograms[name] = h
	return h
}

// Snapshot copies every series into plain values, safe to read while
// writers keep updating. Each series is read atomically; the snapshot as
// a whole is not a single instant, but every value in it was current at
// some point during the call.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// HistogramSnapshot is the plain-value copy of one histogram series.
type HistogramSnapshot struct {
	// Count is the total number of observations.
	Count int64
	// Sum is the sum of all observed values.
	Sum float64
	// Bounds are the ascending bucket upper bounds.
	Bounds []float64
	// Counts has len(Bounds)+1 entries; Counts[i] is the number of
	// observations in (Bounds[i-1], Bounds[i]], the last being overflow.
	Counts []int64
}

// Mean returns the average observed value (0 with no observations).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1)
// from the bucket counts: the upper bound of the bucket containing the
// q*Count-th observation (the last finite bound for the overflow bucket).
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.Counts {
		seen += c
		if seen >= rank {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return h.Bounds[len(h.Bounds)-1]
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is a plain-value copy of a registry, for programmatic scraping
// (Accelerator.Snapshot), the debug endpoint, and the -metrics reports.
type Snapshot struct {
	// Counters maps series name to count.
	Counters map[string]int64
	// Gauges maps series name to current value.
	Gauges map[string]int64
	// Histograms maps series name to its distribution.
	Histograms map[string]HistogramSnapshot
}

// Counter returns the named counter's value (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns the named gauge's value (0 when absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Text renders the snapshot as a sorted human-readable report, the format
// behind the -metrics flags.
func (s Snapshot) Text() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-44s %12d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-44s %12d\n", n, s.Gauges[n])
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "%-44s n=%-9d mean=%-12.4g p50=%-10.4g p99=%-10.4g sum=%.6g\n",
			n, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Sum)
	}
	return b.String()
}
