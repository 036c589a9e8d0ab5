package main

import (
	"math"
	"sort"
	"time"
)

// The benchmark's own arithmetic: order statistics, the tail-percentile
// rule, open-loop latency accounting and span self time. Everything here is
// pure so bench_test.go can pin it.

// median returns the middle value (the mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2, Q3 exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the spread the benchmark reports about itself matches the one
// its consumers compute. It needs at least two values.
func quartiles(xs []float64) (q [3]float64, ok bool) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		return q, false
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q, true
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q, ok := quartiles(xs)
	if !ok || q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// percentile is the linearly interpolated p-th percentile (0 <= p <= 100)
// of xs, the "type 7" estimator; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if len(s) == 1 {
		return s[0]
	}
	h := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// tailCandidates are the percentiles a tail metric may report, highest
// first.
var tailCandidates = []float64{99.9, 99.5, 99, 95, 90, 75, 50}

// tailPercentile applies the tail rule: the highest candidate percentile
// that still has at least minBeyond of n samples strictly above its rank.
// Each workload fixes n from its design (not from a run's count), so the
// reported percentile never changes between runs.
func tailPercentile(n, minBeyond int) float64 {
	for _, p := range tailCandidates {
		// The epsilon keeps float rounding (99.9/100·10000 = 9990.000…2)
		// from pushing an exact rank up by one.
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
		if n-rank >= minBeyond {
			return p
		}
	}
	return 50
}

// dueLatencies returns each request's latency measured from when it was due
// rather than when it was sent. An open-loop generator that stalls sends the
// delayed requests late; charging from the due time makes every request
// queued behind the stall pay for it, instead of hiding the stall in the
// generator (coordinated omission).
func dueLatencies(due, done []time.Time) []float64 {
	out := make([]float64, len(due))
	for i := range due {
		out[i] = ms(done[i].Sub(due[i]))
	}
	return out
}

// interval is a closed-open time range.
type interval struct{ start, end time.Time }

// unionLength is the total length covered by the intervals after clipping
// each to [lo, hi]; overlaps count once.
func unionLength(ivs []interval, lo, hi time.Time) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s.Before(lo) {
			s = lo
		}
		if e.After(hi) {
			e = hi
		}
		if e.After(s) {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case !iv.start.After(cur.end):
			if iv.end.After(cur.end) {
				cur.end = iv.end
			}
		default:
			total += cur.end.Sub(cur.start)
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}

// selfTime is a span's duration minus the union of its children's
// intervals (clipped to the span), so overlapping children — two workers'
// leases under one run — are not double-subtracted.
func selfTime(parent interval, children []interval) time.Duration {
	return parent.end.Sub(parent.start) - unionLength(children, parent.start, parent.end)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
