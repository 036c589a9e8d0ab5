// Package obs is the zero-dependency observability layer of the rumord
// service and cluster: mergeable log-linear latency histograms, a bounded
// in-memory flight recorder of per-run phase spans, structured-logging
// construction on log/slog, and the HTTP access-log middleware.
//
// The layer observes timing strictly outside the repetition math: nothing in
// it touches the deterministic RNG streams or the reduction order, so the
// engine's byte-identity contract — equal (canonical scenario, seed, reps)
// produce bit-identical summaries at any parallelism or topology — holds
// unchanged with instrumentation enabled. The existing byte-identity suites
// pin that.
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// The bucket layout: a log-linear grid over int64 nanoseconds, like the
// HDR/OpenTelemetry exponential schemes but with fixed compile-time bounds
// so the record path is two shifts and a bits.Len64 — no float math, no
// allocation, no lock. Each power-of-two octave [2^e, 2^(e+1)) is split into
// subCount linear sub-buckets, giving <= 25% relative bucket width.
//
// Octaves run from 2^minExp ns (~1 µs) to 2^maxExp ns (~68.7 s): bucket 0
// catches everything below ~1 µs, the last bucket everything at or above
// ~68.7 s (the +Inf bucket in Prometheus terms). A bucket holds values in
// [lower, upper) — a value exactly on a bound counts in the next bucket,
// the same half-open convention the exponential-histogram exporters use.
const (
	subBits  = 2
	subCount = 1 << subBits // linear sub-buckets per octave
	minExp   = 10           // 2^10 ns ≈ 1 µs
	maxExp   = 36           // 2^36 ns ≈ 68.7 s

	// NumBuckets = underflow + (maxExp-minExp)*subCount finite buckets +
	// overflow.
	NumBuckets = 1 + (maxExp-minExp)*subCount + 1
)

// bucketIndex maps a duration in nanoseconds to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 1<<minExp {
		return 0
	}
	exp := bits.Len64(u) - 1 // position of the leading one: minExp..63
	if exp >= maxExp {
		return NumBuckets - 1
	}
	sub := (u >> (uint(exp) - subBits)) & (subCount - 1)
	return 1 + (exp-minExp)*subCount + int(sub)
}

// BucketBound returns the exclusive upper bound, in nanoseconds, of bucket i.
// The last bucket is unbounded and returns -1 (+Inf).
func BucketBound(i int) int64 {
	switch {
	case i <= 0:
		return 1 << minExp
	case i >= NumBuckets-1:
		return -1
	}
	k := i - 1
	exp := minExp + k/subCount
	sub := k % subCount
	return 1<<uint(exp) + int64(sub+1)<<(uint(exp)-subBits)
}

// Histogram is one latency distribution: a fixed array of atomic counters
// plus the running sum, so Observe is wait-free and safe from any goroutine.
// Snapshots are mergeable the way stats.Merger chunks are — bucket counts
// and sums add — which is what lets a coordinator fold worker-side
// distributions into its own.
type Histogram struct {
	name string // short name, e.g. "queue_wait"; see Snapshot.PromName
	help string

	counts [NumBuckets]atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

// NewHistogram returns an unregistered histogram (tests use it directly;
// production code gets histograms from a Registry).
func NewHistogram(name, help string) *Histogram {
	return &Histogram{name: name, help: help}
}

// Observe records one duration. Nil-safe: a nil histogram drops the
// observation, so call sites need no guards.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	v := int64(d)
	h.counts[bucketIndex(v)].Add(1)
	if v > 0 {
		h.sum.Add(v)
	}
}

// Snapshot reads the current counts. Under concurrent Observe calls the
// counts and sum may tear by a few in-flight observations — acceptable for
// monitoring, and the derived totals are always internally consistent
// (Total is the sum of Counts).
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{
		Name:     h.name,
		Help:     h.help,
		Counts:   make([]uint64, NumBuckets),
		SumNanos: h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Snapshot is a point-in-time copy of a histogram, safe to render, merge or
// ship without further synchronization.
type Snapshot struct {
	Name     string
	Help     string
	Counts   []uint64
	SumNanos int64
}

// Total is the observation count.
func (s Snapshot) Total() uint64 {
	var t uint64
	for _, c := range s.Counts {
		t += c
	}
	return t
}

// Quantile estimates the q-quantile (0 < q <= 1) in seconds by linear
// interpolation within the covering bucket. The overflow bucket reports its
// lower bound; an empty snapshot reports 0.
func (s Snapshot) Quantile(q float64) float64 {
	total := s.Total()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next < rank && i < len(s.Counts)-1 {
			cum = next
			continue
		}
		lower := int64(0)
		if i > 0 {
			lower = BucketBound(i - 1)
		}
		upper := BucketBound(i)
		if upper < 0 { // overflow bucket: no upper bound to interpolate to
			return float64(lower) / 1e9
		}
		frac := (rank - cum) / float64(c)
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		return (float64(lower) + frac*float64(upper-lower)) / 1e9
	}
	return 0
}

// Registry is an ordered name → histogram table. Get-or-create semantics let
// independently constructed subsystems (service, cluster coordinator) share
// one histogram when they are handed the same registry, and rendering in
// registration order keeps /metrics output deterministic.
type Registry struct {
	mu    sync.Mutex
	order []string
	hists map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{hists: make(map[string]*Histogram)}
}

// Histogram returns the named histogram, creating it on first use. The help
// text of the first creation wins.
func (r *Registry) Histogram(name, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := NewHistogram(name, help)
	r.hists[name] = h
	r.order = append(r.order, name)
	return h
}

// Snapshots returns every histogram's snapshot in registration order.
func (r *Registry) Snapshots() []Snapshot {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	hists := make([]*Histogram, len(names))
	for i, n := range names {
		hists[i] = r.hists[n]
	}
	r.mu.Unlock()
	out := make([]Snapshot, len(hists))
	for i, h := range hists {
		out[i] = h.Snapshot()
	}
	return out
}
