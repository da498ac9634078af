// Package telemetry is a dependency-free metrics layer for the XR engines:
// a registry of named atomic counters, gauges, and log-scaled latency
// histograms, plus a lightweight span API for timing phases.
//
// Design constraints (see DESIGN.md §10):
//
//   - Race-clean: instruments are updated with atomics only; the registry
//     lock is taken solely when an instrument is first registered. The
//     shared signature-program cache and the worker pools update counters
//     concurrently, so every mutation must commute — which also makes
//     counter totals deterministic at any Parallelism (sums of per-program
//     contributions are order-independent).
//   - Near-zero cost when disabled: every instrument method is nil-safe
//     (a method on a nil *Counter / *Gauge / *Histogram / *Registry is a
//     no-op), so engines hold possibly-nil instrument pointers and call
//     them unconditionally. No branching on a "enabled" flag, no
//     interface dispatch, no allocation.
//   - Deterministic snapshots: Snapshot marshals to JSON with sorted keys
//     (encoding/json sorts map keys), so two registries with equal counter
//     values produce byte-identical counter sections.
package telemetry

import (
	"encoding/json"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value (e.g. cache size, workers busy).
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value. Safe on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by delta (negative allowed). Safe on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// numBuckets covers 1µs .. ~1.1h in powers of two; the last bucket is the
// +Inf overflow.
const numBuckets = 33

// Histogram is a log₂-scaled latency histogram: bucket i counts
// observations with duration < 2^i microseconds (cumulative counts are
// reconstructed at exposition time). All updates are atomic.
type Histogram struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// bucketIndex maps a duration to its bucket: the bit length of the
// duration in whole microseconds (0µs → bucket 0, 1µs → 1, 1ms → 10, ...).
func bucketIndex(d time.Duration) int {
	us := uint64(d.Microseconds())
	i := bits.Len64(us)
	if i >= numBuckets {
		return numBuckets - 1
	}
	return i
}

// bucketUpperSeconds returns bucket i's exclusive upper bound in seconds
// (the last bucket is unbounded).
func bucketUpperSeconds(i int) float64 {
	return float64(uint64(1)<<uint(i)) / 1e6
}

// Observe records one duration. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sumNs.Add(d.Nanoseconds())
	h.buckets[bucketIndex(d)].Add(1)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed durations
// in seconds, reconstructed from the log₂ buckets with linear interpolation
// inside the selected bucket. The estimate is exact at bucket boundaries
// and off by at most a factor of 2 inside a bucket — good enough for the
// p50/p95/p99 operator dashboards it feeds. Observations in the unbounded
// overflow bucket report that bucket's lower bound (a conservative
// under-estimate). Returns 0 on a nil or empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	var buckets [numBuckets]int64
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return bucketQuantile(&buckets, h.count.Load(), q)
}

// bucketQuantile implements Quantile over a copied bucket array, so
// Snapshot can reuse it without re-reading the atomics per percentile.
func bucketQuantile(buckets *[numBuckets]int64, count int64, q float64) float64 {
	if count <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(count)
	cum := float64(0)
	for i := 0; i < numBuckets; i++ {
		n := float64(buckets[i])
		if n == 0 {
			continue
		}
		if cum+n < target {
			cum += n
			continue
		}
		lower := 0.0
		if i > 0 {
			lower = bucketUpperSeconds(i - 1)
		}
		if i == numBuckets-1 {
			// Unbounded overflow bucket: no upper edge to interpolate to.
			return lower
		}
		upper := bucketUpperSeconds(i)
		return lower + (upper-lower)*((target-cum)/n)
	}
	return 0
}

// Export copies the histogram's state — observation count, summed
// nanoseconds, and the raw log₂ bucket counts — for persistence. The
// bucket slice always has len numBuckets (33). Nil receivers export a
// zero state with a nil bucket slice.
func (h *Histogram) Export() (count, sumNs int64, buckets []int64) {
	if h == nil {
		return 0, 0, nil
	}
	buckets = make([]int64, numBuckets)
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return h.count.Load(), h.sumNs.Load(), buckets
}

// Merge folds a previously Exported state into the histogram (additive,
// so restoring persisted data composes with live observations). Bucket
// slices shorter than numBuckets merge their prefix; longer slices fold
// the excess into the overflow bucket, so a state exported under a
// different bucket count still lands conservatively. Safe on a nil
// receiver (no-op).
func (h *Histogram) Merge(count, sumNs int64, buckets []int64) {
	if h == nil {
		return
	}
	h.count.Add(count)
	h.sumNs.Add(sumNs)
	for i, n := range buckets {
		if i >= numBuckets {
			h.buckets[numBuckets-1].Add(n)
			continue
		}
		h.buckets[i].Add(n)
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total observed duration (0 on a nil receiver).
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sumNs.Load())
}

// Labeled builds an instrument name carrying Prometheus-style labels:
// Labeled("xr_server_queries_total", "scenario", "genome") yields
// `xr_server_queries_total{scenario="genome"}`. The labeled name is an
// ordinary registry key — Snapshot sorts it like any other — and
// WritePrometheus renders it as a labeled series of the base family
// (one # TYPE line per base name). Pairs are sorted by label key so the
// same label set always produces the same series name; label values are
// escaped per the exposition format. Odd trailing keys get an empty value.
func Labeled(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, (len(kv)+1)/2)
	for i := 0; i < len(kv); i += 2 {
		p := pair{k: kv[i]}
		if i+1 < len(kv) {
			p.v = kv[i+1]
		}
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes a label value per the Prometheus text
// exposition format: backslash, double quote, and newline. It works
// byte-wise, not rune-wise: the exposition format treats values as raw
// bytes, and a rune loop would silently rewrite invalid UTF-8 (a hostile
// tenant name) to U+FFFD, changing the series identity.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// baseName strips a Labeled name back to its metric family ("a{b="c"}" →
// "a"); plain names pass through unchanged.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// Registry holds named instruments. Instruments are registered on first
// use and never removed; lookups after registration are lock-free at the
// call sites because callers retain the returned pointers.
//
// All methods are safe on a nil *Registry: they return nil instruments,
// whose methods are in turn no-ops — the disabled-telemetry fast path.
type Registry struct {
	mu         sync.Mutex
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

// Counter returns the counter with the given name, registering it on
// first use. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, registering it on first
// use. Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, registering it on
// first use. Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// HistogramSnapshot is the JSON form of one histogram: non-empty buckets
// with their exclusive upper bounds in seconds (the unbounded bucket
// reports UpperSeconds 0), total count, and the sum in seconds.
type HistogramSnapshot struct {
	Count      int64   `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
	// P50/P95/P99 are latency-quantile estimates in seconds, reconstructed
	// from the log₂ buckets (see Histogram.Quantile). Zero when empty.
	P50     float64       `json:"p50"`
	P95     float64       `json:"p95"`
	P99     float64       `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one non-empty histogram bucket.
type BucketCount struct {
	UpperSeconds float64 `json:"le"`
	Count        int64   `json:"count"`
}

// Snapshot is a point-in-time copy of every instrument, shaped for
// deterministic JSON (map keys marshal sorted).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current values. On a nil registry it
// returns an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{Counters: map[string]int64{}}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	if len(r.gauges) > 0 {
		snap.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			snap.Gauges[name] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			hs := HistogramSnapshot{
				Count:      h.count.Load(),
				SumSeconds: float64(h.sumNs.Load()) / 1e9,
			}
			var buckets [numBuckets]int64
			for i := range h.buckets {
				buckets[i] = h.buckets[i].Load()
			}
			hs.P50 = bucketQuantile(&buckets, hs.Count, 0.50)
			hs.P95 = bucketQuantile(&buckets, hs.Count, 0.95)
			hs.P99 = bucketQuantile(&buckets, hs.Count, 0.99)
			for i := range buckets {
				if n := buckets[i]; n > 0 {
					upper := bucketUpperSeconds(i)
					if i == numBuckets-1 {
						upper = 0 // unbounded overflow bucket
					}
					hs.Buckets = append(hs.Buckets, BucketCount{UpperSeconds: upper, Count: n})
				}
			}
			snap.Histograms[name] = hs
		}
	}
	return snap
}

// MarshalJSON renders the snapshot with sorted keys (encoding/json sorts
// map keys), making equal registries byte-identical.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	type plain Snapshot // avoid recursion
	return json.Marshal(plain(s))
}

// CounterNames returns the registered counter names, sorted.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
