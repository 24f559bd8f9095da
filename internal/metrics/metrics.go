// Package metrics is the simulator's observability substrate: named
// counters, power-of-two-bucket histograms, append-only time series and
// span timers, collected in a Registry and exported as JSON or CSV
// snapshots.
//
// Every primitive is safe for concurrent use (atomic operations on the
// hot paths, a mutex only on series appends and registry misses), and
// the hot-path cost of an increment or observation is a handful of
// atomic adds — cheap enough to leave enabled inside the discrete-event
// engine's message loop. Call sites that fire per simulated message
// cache the metric pointer instead of going through the registry map
// each time; the registry's get-or-create is for once-per-round and
// setup paths.
//
// Instrumented layers and their name prefixes:
//
//	msg.<kind>.{count,cost}   sim.Engine per-message-kind accounting
//	sim.queue.depth           event-queue depth at schedule time
//	chord.lookup.{hops,latency}
//	core.phase.*, core.pairs.*, core.moved_load, core.subset.cost
//	protocol.phase.*, protocol.{timeouts,aborted_transfers}
//
// Durations recorded by simulation code are in virtual-time units;
// wall-clock spans (cmd/lbbench) are in nanoseconds. The unit is part
// of the metric's contract, not encoded in the snapshot.
package metrics

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The zero value
// is ready to use and safe for concurrent increments.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be any sign; counters conventionally only grow).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// FloatCounter accumulates a float64 total (moved load, shed load —
// quantities that are not integers). The zero value is ready to use;
// Add is lock-free (CAS on the bit pattern).
type FloatCounter struct {
	bits atomic.Uint64
}

// Add accumulates v.
func (f *FloatCounter) Add(v float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Value returns the accumulated total.
func (f *FloatCounter) Value() float64 {
	return math.Float64frombits(f.bits.Load())
}

// histBuckets is the fixed bucket count: bucket 0 holds observations
// <= 0, bucket i (1..64) holds observations in [2^(i-1), 2^i).
const histBuckets = 65

// Histogram is a fixed-size power-of-two-bucket histogram over int64
// observations (latencies, hop counts, queue depths). Observations are
// a few atomic adds; there is no allocation after creation. Create
// histograms through a Registry (or NewHistogram) — the zero value has
// an invalid min/max seed.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketLo returns the inclusive lower bound of bucket i (math.MinInt64
// for bucket 0).
func BucketLo(i int) int64 {
	if i <= 0 {
		return math.MinInt64
	}
	return int64(1) << uint(i-1)
}

// BucketHi returns the exclusive upper bound of bucket i.
func BucketHi(i int) int64 {
	if i >= histBuckets-1 {
		return math.MaxInt64
	}
	return int64(1) << uint(i)
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
	for {
		old := h.min.Load()
		if v >= old || h.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Point is one sample of a time series.
type Point struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// Series is an append-only time series (virtual time → value), used for
// slow-changing observables such as imbalance over time.
type Series struct {
	mu  sync.Mutex
	pts []Point
}

// Append records a point.
func (s *Series) Append(t, v float64) {
	s.mu.Lock()
	s.pts = append(s.pts, Point{T: t, V: v})
	s.mu.Unlock()
}

// Points returns a copy of the recorded points.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Point(nil), s.pts...)
}

// Clock supplies the current time for a Span, in whatever unit the
// caller measures (virtual-time units inside the simulator, nanoseconds
// for wall-clock benchmarking).
type Clock func() int64

// Span measures one phase: StartSpan captures the clock, End observes
// the elapsed duration into the histogram.
type Span struct {
	h     *Histogram
	clock Clock
	start int64
}

// StartSpan begins a span against h using clock.
func StartSpan(h *Histogram, clock Clock) Span {
	return Span{h: h, clock: clock, start: clock()}
}

// End observes the elapsed duration and returns it.
func (s Span) End() int64 {
	d := s.clock() - s.start
	s.h.Observe(d)
	return d
}

// Registry is a named collection of metrics. Lookups are get-or-create
// and safe for concurrent use; each metric kind has its own namespace.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	floats   map[string]*FloatCounter
	hists    map[string]*Histogram
	series   map[string]*Series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		floats:   make(map[string]*FloatCounter),
		hists:    make(map[string]*Histogram),
		series:   make(map[string]*Series),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Float returns the named float counter, creating it on first use.
func (r *Registry) Float(name string) *FloatCounter {
	r.mu.RLock()
	f := r.floats[name]
	r.mu.RUnlock()
	if f != nil {
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f = r.floats[name]; f == nil {
		f = &FloatCounter{}
		r.floats[name] = f
	}
	return f
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Series returns the named series, creating it on first use.
func (r *Registry) Series(name string) *Series {
	r.mu.RLock()
	s := r.series[name]
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s = r.series[name]; s == nil {
		s = &Series{}
		r.series[name] = s
	}
	return s
}

// Span starts a phase span against the named histogram.
func (r *Registry) Span(name string, clock Clock) Span {
	return StartSpan(r.Histogram(name), clock)
}
