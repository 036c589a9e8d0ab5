package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"dynamicrumor/internal/obs"
	"dynamicrumor/internal/service"
)

// The committed service goldens, read as fixtures of rumord's wire formats.
const goldens = "../internal/service/testdata"

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{10, 50}, {19, 50}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {1999, 99}, {2000, 99.5}, {9999, 99.5}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, 10); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		// The rule's invariant: at least 10 samples lie beyond the rank.
		p := tailPercentile(c.n, 10)
		if beyond := c.n - int(math.Ceil(p*float64(c.n)/100-1e-9)); beyond < 10 && p != 50 {
			t.Errorf("n=%d: p%v leaves only %d samples beyond", c.n, p, beyond)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	// Reference values from Python: statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1}, [3]float64{-1.25, 5.5, 12.25}}, // extrapolates, as Python does
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{2.1, 9.4, 3.3, 7.7, 5.0, 6.2, 1.8}, [3]float64{2.1, 5.0, 7.7}},
	}
	for _, c := range cases {
		q, ok := quartiles(c.xs)
		if !ok {
			t.Fatalf("quartiles(%v) not ok", c.xs)
		}
		for i := range q {
			if !near(q[i], c.want[i]) {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, q, c.want)
				break
			}
		}
	}
	if _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be ok")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := percentile([]float64{1, 2, 3, 4}, 50); got != 2.5 {
		t.Errorf("percentile 50 = %v", got)
	}
	if got := percentile([]float64{1, 2, 3, 4}, 100); got != 4 {
		t.Errorf("percentile 100 = %v", got)
	}
}

// A generator that stalls delays every request due during the stall; due-
// time latency charges each of them for the wait, not just the first.
func TestDueLatencyChargesStallToLaterRequests(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var due, done []time.Time
	for i := 0; i < 5; i++ {
		due = append(due, t0.Add(time.Duration(i)*10*time.Millisecond))
	}
	// Request 0 takes 1 ms; the generator then stalls until t0+45ms and
	// sends 1..4 back to back, each answered 1 ms after the previous.
	done = append(done, t0.Add(time.Millisecond))
	for i := 1; i < 5; i++ {
		done = append(done, t0.Add(45*time.Millisecond+time.Duration(i)*time.Millisecond))
	}
	got := dueLatencies(due, done)
	want := []float64{1, 36, 27, 18, 9}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Fatalf("due latencies = %v, want %v", got, want)
		}
	}
}

func TestCycleRatesAreMediansOverCycles(t *testing.T) {
	t0 := time.Unix(1000, 0)
	mk := func(startS, wallS float64, cpuMs int) cycle {
		st := t0.Add(time.Duration(startS * float64(time.Second)))
		return cycle{start: st, end: st.Add(time.Duration(wallS * float64(time.Second))),
			cpu: time.Duration(cpuMs) * time.Millisecond, reps: 100, jobs: 4}
	}
	// The middle cycle stalled: five times the wall time, three times the
	// CPU. Medians ignore it where a window total would not.
	cs := []cycle{mk(0, 1, 200), mk(1, 5, 600), mk(6, 1.25, 250)}
	rps, jps, cpr := cycleRates(cs)
	if !near(rps, 80) || !near(jps, 3.2) || !near(cpr, 2500) {
		t.Fatalf("cycleRates = %v reps/s, %v jobs/s, %v us/rep; want 80, 3.2, 2500", rps, jps, cpr)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := interval{at(0), at(100)}
	children := []interval{
		{at(10), at(40)}, // two workers' leases overlapping
		{at(30), at(60)},
		{at(50), at(55)},   // nested in the previous
		{at(90), at(120)},  // runs past the parent: clipped
		{at(-5), at(2)},    // starts before the parent: clipped
		{at(70), at(70)},   // point event
		{at(200), at(300)}, // outside entirely
	}
	// Covered: [0,2) + [10,60) + [90,100) = 2 + 50 + 10 = 62 ms.
	if got := selfTime(parent, children); got != 38*time.Millisecond {
		t.Errorf("self time = %v, want 38ms", got)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Errorf("self time without children = %v", got)
	}
}

func TestParseTraceParentsAndSelfTimes(t *testing.T) {
	rec := obs.NewRecorder(4)
	tr := rec.Start("tr-j00000007", "j00000007")
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr.Add(obs.Span{Name: "submitted", Start: at(0), End: at(0)})
	tr.Add(obs.Span{Name: "queued", Start: at(0), End: at(5)})
	tr.Add(obs.Span{Name: "run", Start: at(5), End: at(105)})
	tr.Add(obs.Span{Name: "lease", Worker: "w1", Detail: "[0,20)", Start: at(10), End: at(60)})
	tr.Add(obs.Span{Name: "execute", Worker: "w1", Detail: "[0,20)", Start: at(12), End: at(50)})
	tr.Add(obs.Span{Name: "upload", Worker: "w1", Detail: "[0,20)", Start: at(50), End: at(60)})
	tr.Add(obs.Span{Name: "lease", Worker: "w2", Detail: "[20,40)", Start: at(40), End: at(100)})
	tr.Add(obs.Span{Name: "execute", Worker: "w2", Detail: "[20,40)", Start: at(41), End: at(90)})
	tr.Add(obs.Span{Name: "settled", Start: at(105), End: at(105)})
	data, err := json.Marshal(tr.View())
	if err != nil {
		t.Fatal(err)
	}
	spans, err := parseTrace(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 7 {
		t.Fatalf("got %d spans, want the 7 with duration", len(spans))
	}
	byName := func(name, worker string) span {
		for _, s := range spans {
			if s.Name == name && s.Worker == worker {
				return s
			}
		}
		t.Fatalf("no %s span for %q", name, worker)
		return span{}
	}
	run := byName("run", "")
	for _, s := range spans {
		if s.Trace != "tr-j00000007" {
			t.Errorf("span %s has trace %q", s.Name, s.Trace)
		}
	}
	if byName("queued", "").Parent != 0 || run.Parent != 0 {
		t.Error("queued and run are roots")
	}
	if byName("lease", "w1").Parent != run.ID || byName("lease", "w2").Parent != run.ID {
		t.Error("leases hang under the run")
	}
	if byName("execute", "w2").Parent != byName("lease", "w2").ID || byName("upload", "w1").Parent != byName("lease", "w1").ID {
		t.Error("a worker's execute and upload hang under its own lease")
	}
	self := selfTimes(spans)
	// run [5,105) minus leases [10,100) = 10 ms; lease w1 [10,60) minus
	// [12,60) = 2 ms; lease w2 [40,100) minus [41,90) = 11 ms.
	want := map[string]time.Duration{"run": 10 * time.Millisecond, "lease": 13 * time.Millisecond,
		"execute": 87 * time.Millisecond, "upload": 10 * time.Millisecond, "queued": 5 * time.Millisecond}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, self[k], v)
		}
	}
}

func TestParseMetricsGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(goldens, "metrics_lifecycle.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := parseMetricsJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cache.Hits != 1 || m.Cache.Misses != 1 || m.Cache.Coalesced != 0 {
		t.Errorf("metrics golden parsed as %+v", m)
	}
	if m.Cluster != nil || m.Durability != nil {
		t.Error("golden has no cluster or durability sections")
	}
}

func TestParseJobGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(goldens, "job_done.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var v jobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	if v.ID != "j00000001" || !v.terminal() || v.Reps != 4 || v.Trace != "tr-j00000001" {
		t.Errorf("job golden parsed as %+v", v)
	}
	fin, err := parseTime(v.FinishedAt)
	if err != nil || !fin.Equal(time.Date(2026, 7, 28, 12, 0, 0, 0, time.UTC)) {
		t.Errorf("finished_at = %v, %v", fin, err)
	}
	if err := checkSummary(v.Summary, 4); err != nil {
		t.Errorf("summary: %v", err)
	}
	if err := checkSummary(v.Summary, 5); err == nil {
		t.Error("a summary of 4 repetitions must fail a check for 5")
	}
}

func TestReadSSEGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(goldens, "sweep_events.sse"))
	if err != nil {
		t.Fatal(err)
	}
	var evs []sseEvent
	if err := readSSE(bytes.NewReader(data), func(ev sseEvent) bool { evs = append(evs, ev); return true }); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 || evs[0].Event != "cell" || evs[1].Event != "cell" || evs[2].Event != "sweep" {
		t.Fatalf("events = %+v", evs)
	}
	ce, err := parseCell(evs[1])
	if err != nil || ce.Run != "s00000001.c001" || ce.State != "done" {
		t.Errorf("cell = %+v, %v", ce, err)
	}
	if err := checkSummary(ce.Summary, 2); err != nil {
		t.Error(err)
	}
	var sv sweepView
	if err := json.Unmarshal(evs[2].Data, &sv); err != nil || sv.Settled != 2 || sv.SharedNetworks != 2 {
		t.Errorf("terminal = %+v, %v", sv, err)
	}
	// Stopping early stops reading.
	n := 0
	readSSE(bytes.NewReader(data), func(sseEvent) bool { n++; return false })
	if n != 1 {
		t.Errorf("callback ran %d times after asking to stop", n)
	}
}

// The Prometheus exposition of a live in-process service parses, and its
// histogram buckets difference and interpolate like rumord's own summary.
func TestParsePrometheusFromService(t *testing.T) {
	svc, err := service.New(service.Config{Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	scrape := func() []promSample {
		req, _ := http.NewRequest(http.MethodGet, "/metrics", nil)
		req.Header.Set("Accept", "text/plain")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		s, err := parsePrometheus(rec.Body)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	before := scrape()
	v, err := inProcSubmit(h, runBody("clique", map[string]int{"n": 16}, 0, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inProcWait(h, v.ID); err != nil {
		t.Fatal(err)
	}
	after := scrape()
	misses := func(s []promSample) float64 {
		for _, x := range s {
			if x.name == "rumord_cache_misses_total" {
				return x.value
			}
		}
		t.Fatal("no rumord_cache_misses_total")
		return 0
	}
	if got := misses(after) - misses(before); got != 1 {
		t.Errorf("misses delta = %v", got)
	}
	d := histDelta(promHistogram(after, "rumord_queue_wait_seconds"), promHistogram(before, "rumord_queue_wait_seconds"))
	if histCount(d) != 1 {
		t.Errorf("queue_wait observations in window = %v", histCount(d))
	}
	if q := histQuantile(d, 0.5); q <= 0 || q > 10 {
		t.Errorf("queue_wait p50 = %v s", q)
	}
	if len(promHistogram(after, "rumord_http_request_seconds")) == 0 {
		t.Error("no http_request buckets")
	}
}

func TestHistQuantile(t *testing.T) {
	b := []histBucket{{1, 0}, {2, 10}, {4, 30}, {math.Inf(1), 40}}
	cases := map[float64]float64{0.25: 2, 0.5: 3, 0.125: 1.5, 1: 4}
	for q, want := range cases {
		if got := histQuantile(b, q); !near(got, want) {
			t.Errorf("histQuantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := histQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v", got)
	}
}

func TestPromLabels(t *testing.T) {
	s, err := parsePrometheus(strings.NewReader("# HELP x y\nrumord_jobs{state=\"done\",role=\"a,b\"} 3\nplain 1.5e3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 || s[0].labels["state"] != "done" || s[0].labels["role"] != "a,b" || s[1].value != 1500 {
		t.Errorf("samples = %+v", s)
	}
	if _, err := parsePrometheus(strings.NewReader("broken{x=\"1\" 2\n")); err == nil {
		t.Error("unterminated labels must fail")
	}
}

// A real CPU profile of this process decodes, and its samples attribute to
// layers by the innermost repo frame.
func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		m := make(metricSet)
		if err := benchStats(m, 1, ""); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Skip("no samples collected")
	}
	layers := cpuByLayer(p)
	if layers["stats"] == 0 {
		t.Errorf("no CPU attributed to stats: %v", layers)
	}
	cases := map[string][]string{
		"sim":     {"dynamicrumor/internal/xrand.(*RNG).Uint64", "dynamicrumor/internal/sim.RunAsyncInto", "dynamicrumor/internal/engine.Engine.RunReduce"},
		"store":   {"syscall.Syscall", "os.(*File).Sync", "dynamicrumor/internal/store.(*Journal).Append", "dynamicrumor/internal/service.(*Service).submit"},
		"http":    {"net/http.(*ServeMux).ServeHTTP", "dynamicrumor/internal/obs.AccessLog.Wrap.func1", "net/http.serverHandler.ServeHTTP"},
		"obs":     {"dynamicrumor/internal/obs.(*Histogram).Observe", "dynamicrumor/internal/obs.AccessLog.Wrap.func1"},
		"runtime": {"runtime.gcBgMarkWorker"},
		"service": {"main.run", "runtime.main"},
	}
	for want, stack := range cases {
		if got := layerOf(stack); got != want {
			t.Errorf("layerOf(%v) = %s, want %s", stack, got, want)
		}
	}
}

// BENCHMARK.json declares the same workloads and metrics, with the same
// units, that the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if findWorkload(w.Name) == nil || workloads[i].name != w.Name {
			t.Errorf("workload %d: %q", i, w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayerDefs)
}
