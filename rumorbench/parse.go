package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Parsers for what rumord serves: the /metrics document (JSON and
// Prometheus text), job views, run traces and the sweep SSE stream. The
// client-side types mirror the wire format only as far as the benchmark
// reads it; unknown fields are ignored.

// jobView is the subset of GET /v1/runs/{id} the benchmark reads.
type jobView struct {
	ID            string          `json:"id"`
	State         string          `json:"state"`
	Key           string          `json:"key"`
	Scenario      json.RawMessage `json:"scenario"`
	Reps          int             `json:"reps"`
	Seed          uint64          `json:"seed"`
	CacheHit      bool            `json:"cache_hit"`
	CoalescedWith string          `json:"coalesced_with"`
	Trace         string          `json:"trace"`
	SubmittedAt   string          `json:"submitted_at"`
	StartedAt     string          `json:"started_at"`
	FinishedAt    string          `json:"finished_at"`
	Error         string          `json:"error"`
	Summary       json.RawMessage `json:"summary"`
}

func (v jobView) terminal() bool {
	return v.State == "done" || v.State == "failed" || v.State == "cancelled"
}

// runSummary is the subset of a summary document the benchmark checks.
type runSummary struct {
	Reps      int `json:"reps"`
	Completed int `json:"completed"`
}

// metricsDoc is the subset of the JSON /metrics document the benchmark
// reads.
type metricsDoc struct {
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Coalesced int64 `json:"coalesced"`
	} `json:"cache"`
	Cluster *struct {
		Workers          int   `json:"workers"`
		LeasesReassigned int64 `json:"leases_reassigned"`
	} `json:"cluster"`
	Durability *struct {
		JournalBytes int64 `json:"journal_bytes"`
	} `json:"durability"`
}

func parseMetricsJSON(data []byte) (metricsDoc, error) {
	var m metricsDoc
	err := json.Unmarshal(data, &m)
	return m, err
}

// promSample is one Prometheus text-format sample.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parsePrometheus reads the text exposition format: comments are skipped,
// every other line is `name{labels} value`.
func parsePrometheus(r io.Reader) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		sp := strings.LastIndexByte(text, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("prometheus line %d: no value: %q", line, text)
		}
		v, err := strconv.ParseFloat(text[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus line %d: %w", line, err)
		}
		s := promSample{name: text[:sp], value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			if !strings.HasSuffix(s.name, "}") {
				return nil, fmt.Errorf("prometheus line %d: unterminated labels: %q", line, text)
			}
			labels, err := parsePromLabels(s.name[i+1 : len(s.name)-1])
			if err != nil {
				return nil, fmt.Errorf("prometheus line %d: %w", line, err)
			}
			s.name, s.labels = s.name[:i], labels
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parsePromLabels(s string) (map[string]string, error) {
	labels := make(map[string]string)
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("malformed label set %q", s)
		}
		key := s[:eq]
		rest := s[eq+1:]
		val, err := strconv.QuotedPrefix(rest)
		if err != nil {
			return nil, fmt.Errorf("label %s: %w", key, err)
		}
		labels[key], _ = strconv.Unquote(val)
		s = strings.TrimPrefix(rest[len(val):], ",")
	}
	return labels, nil
}

// histBucket is one cumulative histogram bucket; le is +Inf for the last.
type histBucket struct {
	le  float64
	cum float64
}

// promHistogram extracts the cumulative buckets of histogram name (without
// the _bucket suffix), sorted by upper bound.
func promHistogram(samples []promSample, name string) []histBucket {
	var out []histBucket
	for _, s := range samples {
		if s.name != name+"_bucket" {
			continue
		}
		le, err := strconv.ParseFloat(s.labels["le"], 64)
		if err != nil {
			continue
		}
		out = append(out, histBucket{le: le, cum: s.value})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out
}

// histDelta subtracts an earlier scrape of the same histogram, leaving the
// observations made between the two scrapes.
func histDelta(after, before []histBucket) []histBucket {
	prev := make(map[float64]float64, len(before))
	for _, b := range before {
		prev[b.le] = b.cum
	}
	out := make([]histBucket, len(after))
	for i, b := range after {
		out[i] = histBucket{le: b.le, cum: b.cum - prev[b.le]}
	}
	return out
}

// histQuantile interpolates quantile q (0..1) linearly inside the bucket
// holding its rank, the same estimator rumord uses for its JSON summary.
// The open-ended last bucket reports its lower bound. The result is in the
// histogram's unit (seconds for rumord).
func histQuantile(b []histBucket, q float64) float64 {
	if len(b) == 0 {
		return 0
	}
	total := b[len(b)-1].cum
	if total <= 0 {
		return 0
	}
	rank := q * total
	lower, prevCum := 0.0, 0.0
	for _, bk := range b {
		if bk.cum >= rank && bk.cum > prevCum {
			if math.IsInf(bk.le, 1) {
				return lower
			}
			frac := (rank - prevCum) / (bk.cum - prevCum)
			return lower + frac*(bk.le-lower)
		}
		lower, prevCum = bk.le, bk.cum
	}
	return lower
}

// histCount is the number of observations in a (delta) histogram.
func histCount(b []histBucket) float64 {
	if len(b) == 0 {
		return 0
	}
	return b[len(b)-1].cum
}

// traceDoc is GET /v1/runs/{id}/trace.
type traceDoc struct {
	Trace string `json:"trace"`
	Spans []struct {
		Name   string `json:"name"`
		Worker string `json:"worker"`
		Detail string `json:"detail"`
		Start  string `json:"start"`
		End    string `json:"end"`
	} `json:"spans"`
}

// span is the benchmark's span model for both its own client-side timings
// and the daemon's harvested timelines: name, interval, parent and trace.
type span struct {
	Trace  string    `json:"trace"`
	ID     int       `json:"id"`
	Parent int       `json:"parent"` // 0 for a root
	Name   string    `json:"name"`
	Worker string    `json:"worker,omitempty"`
	Detail string    `json:"detail,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// parseTrace converts a run timeline into spans with parents assigned: the
// run span parents the phases executed inside it (compiled, execute, lease,
// upload); a worker's execute and upload spans hang under the lease of the
// same worker and repetition range. Point events (submitted, settled,
// cache-hit, coalesced) are dropped — they have no duration to attribute.
// IDs continue from firstID so spans of many runs share one numbering.
func parseTrace(data []byte, firstID int) ([]span, error) {
	var doc traceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	var out []span
	for _, sv := range doc.Spans {
		start, err := time.Parse(time.RFC3339Nano, sv.Start)
		if err != nil {
			return nil, fmt.Errorf("span %s start: %w", sv.Name, err)
		}
		end, err := time.Parse(time.RFC3339Nano, sv.End)
		if err != nil {
			return nil, fmt.Errorf("span %s end: %w", sv.Name, err)
		}
		if !end.After(start) {
			continue
		}
		out = append(out, span{Trace: doc.Trace, ID: firstID + len(out), Name: sv.Name,
			Worker: sv.Worker, Detail: sv.Detail, Start: start, End: end})
	}
	runID := 0
	leases := make(map[string]int)
	for _, s := range out {
		switch s.Name {
		case "run":
			runID = s.ID
		case "lease":
			leases[s.Worker+"|"+s.Detail] = s.ID
		}
	}
	for i := range out {
		s := &out[i]
		switch s.Name {
		case "run", "queued":
		case "lease", "compiled":
			s.Parent = runID
		default:
			if id, ok := leases[s.Worker+"|"+s.Detail]; ok && s.Worker != "" {
				s.Parent = id
			} else {
				s.Parent = runID
			}
		}
	}
	return out, nil
}

// selfTimes sums each span name's self time (duration minus the union of
// its children) over a span set.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.interval())
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += selfTime(s.interval(), children[s.ID])
	}
	return out
}

// sseEvent is one server-sent event.
type sseEvent struct {
	Event string
	Data  []byte
	At    time.Time // receipt time
}

// readSSE parses an event stream, calling fn with each complete event as it
// arrives (stamped with its receipt time); fn returning false stops reading.
func readSSE(r io.Reader, fn func(sseEvent) bool) error {
	br := bufio.NewReader(r)
	var ev sseEvent
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			line = bytes.TrimRight(line, "\r\n")
			switch {
			case len(line) == 0:
				if ev.Event != "" || len(ev.Data) > 0 {
					ev.At = time.Now()
					if !fn(ev) {
						return nil
					}
				}
				ev = sseEvent{}
			case bytes.HasPrefix(line, []byte("event: ")):
				ev.Event = string(line[7:])
			case bytes.HasPrefix(line, []byte("data: ")):
				ev.Data = append(ev.Data, line[6:]...)
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// cellEvent is the data of an SSE "cell" event.
type cellEvent struct {
	Run     string          `json:"run"`
	State   string          `json:"state"`
	Summary json.RawMessage `json:"summary"`
}

// sweepView is the subset of a sweep document (POST response, terminal SSE
// event) the benchmark reads.
type sweepView struct {
	ID             string `json:"id"`
	State          string `json:"state"`
	Total          int    `json:"total"`
	Settled        int    `json:"settled"`
	SharedNetworks int    `json:"shared_networks"`
}

func parseTime(s string) (time.Time, error) { return time.Parse(time.RFC3339Nano, s) }
