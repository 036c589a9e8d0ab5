package main

import (
	"math"
	"sort"
	"time"
)

// Metric definitions. Every end-to-end metric is computed for every
// workload from the untraced window; the per-layer metrics come from the
// traced window, the daemon's own /metrics and timelines, and layerBench.

// metricDef declares one reported metric.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_rep", "us"},
}

// endToEndMetrics computes the end-to-end metrics of an untraced window.
func endToEndMetrics(w *workload, win *window, setups []float64, o *outcome) metricSet {
	m := make(metricSet)
	d := win.d
	settle, submit := settleSubmit(win)
	m["setup_s"] = median(setups)
	if len(d.cycles) > 0 {
		m["reps_per_s"], m["jobs_per_s"], m["cpu_us_per_rep"] = cycleRates(d.cycles)
	} else {
		reps, jobs := executedWork(win)
		wall := d.end.Sub(d.start).Seconds()
		m["reps_per_s"] = float64(reps) / wall
		m["jobs_per_s"] = float64(jobs) / wall
		m["cpu_us_per_rep"] = float64(win.cpu.Microseconds()) / float64(reps)
	}

	// The rates above and the metrics below are user-visible too, but too
	// unsteady from run to run on a shared host to bound, so they are
	// reported with the per-layer metrics (README.md).
	m["settle_p50_ms"] = median(settle)
	m["submit_p50_ms"] = median(submit)
	m["peak_rss_mib"] = float64(win.rss) / (1 << 20)
	p := tailPercentile(w.nominal, 10)
	m["settle_tail_ms"] = percentile(settle, p)
	m["submit_tail_ms"] = percentile(submit, p)
	m["tail_percentile"] = p
	var walls []float64
	for _, sw := range d.sweeps {
		walls = append(walls, sw.end.Sub(sw.sent).Seconds())
	}
	m["sweep_wall_s"] = median(walls)
	m["error_rate"] = float64(o.failed) / float64(max(o.attempted, 1))
	m["samples"] = float64(len(settle))
	return m
}

// settleSubmit returns the settle and submit latencies of a window in ms.
// Settle runs from when a submission was due (an open loop) or sent (a
// closed loop, where the two coincide) to the job's server finished_at;
// for sweeps it is per cell, from the sweep's POST. Submit runs from due or
// sent to the response.
func settleSubmit(win *window) (settle, submit []float64) {
	d := win.d
	var due, done []time.Time
	for _, s := range d.subs {
		if s.err != nil {
			continue
		}
		due, done = append(due, s.due), append(done, s.recv)
		if v, ok := win.jobs[s.id]; ok {
			if fin, err := parseTime(v.FinishedAt); err == nil {
				settle = append(settle, ms(fin.Sub(s.due)))
			}
		}
	}
	submit = dueLatencies(due, done)
	for _, sw := range d.sweeps {
		if sw.err != nil {
			continue
		}
		submit = append(submit, ms(sw.recv.Sub(sw.sent)))
		for _, ev := range sw.events {
			ce, err := parseCell(ev)
			if err != nil {
				continue
			}
			if v, ok := win.jobs[ce.Run]; ok {
				if fin, err := parseTime(v.FinishedAt); err == nil {
					settle = append(settle, ms(fin.Sub(sw.sent)))
				}
			}
		}
	}
	return settle, submit
}

// cycleRates gives a closed loop's throughput and CPU cost as medians over
// its cycles, so a stall of the shared host inflates one cycle rather than
// the whole run.
func cycleRates(cs []cycle) (repsPerS, jobsPerS, cpuUsPerRep float64) {
	var rps, jps, cpr []float64
	for _, c := range cs {
		wall := c.end.Sub(c.start).Seconds()
		rps = append(rps, float64(c.reps)/wall)
		jps = append(jps, float64(c.jobs)/wall)
		cpr = append(cpr, float64(c.cpu.Microseconds())/float64(c.reps))
	}
	return median(rps), median(jps), median(cpr)
}

// cycleSeries lists each cycle's repetitions per second, in order, for the
// run record.
func cycleSeries(cs []cycle) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = float64(c.reps) / c.end.Sub(c.start).Seconds()
	}
	return out
}

// executedWork counts the repetitions the daemon computed in the window
// (cache hits and coalesced duplicates compute nothing) and the jobs that
// settled (every submission and every sweep cell).
func executedWork(win *window) (reps int64, jobs int) {
	for _, s := range win.d.subs {
		v, ok := win.jobs[s.id]
		if !ok || v.State != "done" {
			continue
		}
		jobs++
		if !v.CacheHit && v.CoalescedWith == "" && s.kind != "dup" {
			reps += int64(s.reps)
		}
	}
	for _, sw := range win.d.sweeps {
		for _, ev := range sw.events {
			if ce, err := parseCell(ev); err == nil && ce.State == "done" {
				jobs++
				reps += int64(sw.reps)
			}
		}
	}
	return reps, jobs
}

// perLayerDefs lists the per-layer metrics and their units, in report
// order. layerBench fills the in-process ones; harvested fills the rest.
var perLayerDefs = []metricDef{
	{"sim.async_v1.n256.ns_per_event", "ns"},
	{"sim.async_v1.n1024.ns_per_event", "ns"},
	{"sim.async_v2.n256.ns_per_event", "ns"},
	{"sim.async_v2.n1024.ns_per_event", "ns"},
	{"sim.async_sparse.ns_per_event", "ns"},
	{"sim.sync.ns_per_event", "ns"},
	{"sim.flood.ns_per_event", "ns"},
	{"sim.events_per_rep", "count"},
	{"dynamic.gnrho.rebuild_us", "us"},
	{"dynamic.edge-markovian.rebuild_us", "us"},
	{"dynamic.mobile.rebuild_us", "us"},
	{"dynamic.dynamic-star.rebuild_us", "us"},
	{"dynamic.rebuild_share", "ratio"},
	{"dynamic.steps_per_rep", "count"},
	{"gen.build_ms", "ms"},
	{"engine.canonicalize_us", "us"},
	{"engine.compile_ms", "ms"},
	{"engine.compileset_networks", "count"},
	{"runner.claim_reduce_ns_per_rep.p1", "ns"},
	{"runner.claim_reduce_ns_per_rep.p2", "ns"},
	{"runner.parallel_efficiency", "ratio"},
	{"stats.stream_add_ns", "ns"},
	{"stats.snapshot_bytes", "bytes"},
	{"stats.marshal_us", "us"},
	{"stats.unmarshal_us", "us"},
	{"stats.merger_add_us", "us"},
	{"store.journal_append_us.p50", "us"},
	{"store.journal_append_us.p99", "us"},
	{"store.cache_put_us", "us"},
	{"store.cache_get_us", "us"},
	{"store.journal_bytes_per_job", "bytes"},
	{"service.http_request_ms.p50", "ms"},
	{"service.http_request_ms.p99", "ms"},
	{"service.queue_wait_ms.p50", "ms"},
	{"service.queue_wait_ms.p99", "ms"},
	{"service.cache_lookup_us.p50", "us"},
	{"service.run_overhead_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.coalesced_ratio", "ratio"},
	{"service.refused", "count"},
	{"service.sse_lag_ms", "ms"},
	{"cluster.lease_roundtrip_ms.p50", "ms"},
	{"cluster.lease_roundtrip_ms.p99", "ms"},
	{"cluster.leases_per_run", "count"},
	{"cluster.first_lease_wait_ms", "ms"},
	{"cluster.execute_share", "ratio"},
	{"cluster.upload_ms.p50", "ms"},
	{"obs.histogram_observe_ns", "ns"},
	{"obs.trace_add_ns", "ns"},
	{"share.cpu.sim", "ratio"},
	{"share.cpu.dynamic", "ratio"},
	{"share.cpu.engine", "ratio"},
	{"share.cpu.runner", "ratio"},
	{"share.cpu.stats", "ratio"},
	{"share.cpu.store", "ratio"},
	{"share.cpu.service", "ratio"},
	{"share.cpu.cluster", "ratio"},
	{"share.cpu.obs", "ratio"},
	{"share.cpu.http", "ratio"},
	{"share.cpu.runtime", "ratio"},
	{"bench.late_send_ms.p99", "ms"},
	{"bench.tracing_overhead_ratio", "ratio"},
	{"reps_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"settle_p50_ms", "ms"},
	{"submit_p50_ms", "ms"},
	{"peak_rss_mib", "MiB"},
	{"settle_tail_ms", "ms"},
	{"submit_tail_ms", "ms"},
	{"sweep_wall_s", "s"},
	{"error_rate", "ratio"},
}

// harvested computes the per-layer metrics of a traced window from the
// daemon's /metrics deltas, its run timelines and the client's records.
func harvested(win *window) metricSet {
	m := make(metricSet)
	q := func(name string, quant, scale float64) float64 {
		h := histDelta(promHistogram(win.promAfter, name), promHistogram(win.promBefore, name))
		return histQuantile(h, quant) * scale
	}
	m["service.http_request_ms.p50"] = q("rumord_http_request_seconds", 0.5, 1e3)
	m["service.http_request_ms.p99"] = q("rumord_http_request_seconds", 0.99, 1e3)
	m["service.queue_wait_ms.p50"] = q("rumord_queue_wait_seconds", 0.5, 1e3)
	m["service.queue_wait_ms.p99"] = q("rumord_queue_wait_seconds", 0.99, 1e3)
	m["service.cache_lookup_us.p50"] = q("rumord_cache_lookup_seconds", 0.5, 1e6)
	m["cluster.lease_roundtrip_ms.p50"] = q("rumord_lease_roundtrip_seconds", 0.5, 1e3)
	m["cluster.lease_roundtrip_ms.p99"] = q("rumord_lease_roundtrip_seconds", 0.99, 1e3)

	hits, coal, miss := cacheDeltas(win)
	if total := hits + coal + miss; total > 0 {
		m["service.cache_hit_ratio"] = hits / total
		m["service.coalesced_ratio"] = coal / total
	}
	refused := 0
	for _, s := range win.d.subs {
		if s.status == 429 || s.status == 503 {
			refused++
		}
	}
	m["service.refused"] = float64(refused)
	m["cluster.leases_per_run"] = leasesPerRun(win)

	// Span self time: a run span minus its children is the backend's own
	// overhead (everything but compile and execute locally; lease waits
	// and gaps between leases on the cluster).
	children := make(map[int][]interval)
	for _, s := range win.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.interval())
		}
	}
	var overhead, firstLease, uploads []float64
	var execute, runWall time.Duration
	firstLeaseOf := make(map[string]time.Time)
	for _, s := range win.spans {
		switch s.Name {
		case "run":
			overhead = append(overhead, ms(selfTime(s.interval(), children[s.ID])))
			runWall += s.End.Sub(s.Start)
		case "lease":
			if t, ok := firstLeaseOf[s.Trace]; !ok || s.Start.Before(t) {
				firstLeaseOf[s.Trace] = s.Start
			}
		case "upload":
			uploads = append(uploads, ms(s.End.Sub(s.Start)))
		case "execute":
			if s.Worker != "" {
				execute += s.End.Sub(s.Start)
			}
		}
	}
	for tr, t := range firstLeaseOf {
		if v, ok := win.jobs[tr[len("tr-"):]]; ok {
			if sub, err := parseTime(v.SubmittedAt); err == nil {
				firstLease = append(firstLease, ms(t.Sub(sub)))
			}
		}
	}
	m["service.run_overhead_ms"] = median(overhead)
	m["cluster.first_lease_wait_ms"] = median(firstLease)
	m["cluster.upload_ms.p50"] = median(uploads)
	if win.d.w.cluster && runWall > 0 {
		m["cluster.execute_share"] = execute.Seconds() / (2 * runWall.Seconds())
	}

	var lags []float64
	for _, sw := range win.d.sweeps {
		for _, ev := range sw.events {
			ce, err := parseCell(ev)
			if err != nil {
				continue
			}
			if v, ok := win.jobs[ce.Run]; ok {
				if fin, err := parseTime(v.FinishedAt); err == nil {
					lags = append(lags, ms(ev.At.Sub(fin)))
				}
			}
		}
	}
	m["service.sse_lag_ms"] = median(lags)

	var total int64
	for _, ns := range win.cpuLayers {
		total += ns
	}
	for _, l := range cpuLayers {
		if total > 0 {
			m["share.cpu."+l] = float64(win.cpuLayers[l]) / float64(total)
		}
	}
	m["bench.late_send_ms.p99"] = percentile(lateSends(win.d), 99)
	return m
}

// lateSends is how late the generator sent each request: past its due time
// in an open loop; in a closed loop, from the client seeing the previous
// job settle (its status response) to sending the next.
func lateSends(d *loadGen) []float64 {
	var out []float64
	if d.w.rate > 0 {
		for _, s := range d.subs {
			out = append(out, ms(s.sent.Sub(s.due)))
		}
		return out
	}
	var prev time.Time
	for _, s := range d.subs {
		if !prev.IsZero() {
			out = append(out, ms(s.sent.Sub(prev)))
		}
		prev = s.settledSeen
	}
	for i := 1; i < len(d.sweeps); i++ {
		out = append(out, ms(d.sweeps[i].sent.Sub(d.sweeps[i-1].end)))
	}
	return out
}

// cacheDeltas returns the window's cache hits, coalesced submissions and
// misses from the daemon's counters.
func cacheDeltas(win *window) (hits, coal, miss float64) {
	a, b := win.metAfter.Cache, win.metBefore.Cache
	return float64(a.Hits - b.Hits), float64(a.Coalesced - b.Coalesced), float64(a.Misses - b.Misses)
}

// leaseCount is the number of leases settled in the window: every settled
// upload observes the lease round-trip histogram once.
func leaseCount(win *window) float64 {
	h := histDelta(promHistogram(win.promAfter, "rumord_lease_roundtrip_seconds"),
		promHistogram(win.promBefore, "rumord_lease_roundtrip_seconds"))
	return histCount(h)
}

// leasesPerRun is the leases settled per run the window executed (0 off
// the cluster).
func leasesPerRun(win *window) float64 {
	runs := len(win.executedIDs())
	if runs == 0 {
		return 0
	}
	return leaseCount(win) / float64(runs)
}

// exactCounts are the window's seed-determined counts: equal seeds must
// reproduce them exactly.
func exactCounts(w *workload, win *window, layers metricSet) map[string]float64 {
	out := make(map[string]float64)
	hits, coal, miss := cacheDeltas(win)
	switch w.name {
	case "admission-mixed":
		out["service.cache_hits"] = hits
		out["service.coalesced"] = coal
		out["service.misses"] = miss
	case "cluster-shards":
		out["cluster.leases_per_run"] = leasesPerRun(win)
	case "dynamic-sweep":
		shared := 0
		for _, sw := range win.d.sweeps {
			shared += sw.terminal.SharedNetworks
		}
		out["engine.shared_networks_per_sweep"] = float64(shared) / float64(max(len(win.d.sweeps), 1))
	}
	for _, k := range []string{"sim.events_per_rep", "dynamic.steps_per_rep", "engine.compileset_networks", "stats.snapshot_bytes", "store.journal_bytes_per_job"} {
		if v, ok := layers[k]; ok {
			out[k] = v
		}
	}
	return out
}

// expectedCounts are the counts the generated inputs imply, checked in the
// window itself.
func checkExpected(w *workload, win *window, o *outcome) {
	hits, coal, miss := cacheDeltas(win)
	switch w.name {
	case "admission-mixed":
		var repeats, dups, fresh float64
		for _, s := range win.d.subs {
			switch s.kind {
			case "repeat":
				repeats++
			case "dup":
				dups++
			case "new", "leader":
				fresh++
			}
		}
		if hits != repeats || coal != dups || miss != fresh {
			o.fail("admission counts: %v hits, %v coalesced, %v misses; the schedule implies %v, %v, %v", hits, coal, miss, repeats, dups, fresh)
		}
	case "cluster-shards":
		var want float64
		for _, s := range win.d.subs {
			want += math.Ceil(float64(s.reps) / clusterShard)
		}
		if got := leaseCount(win); got != want {
			o.fail("cluster: %v leases settled, the runs imply %v", got, want)
		}
		if c := win.metAfter.Cluster; c != nil && win.metBefore.Cluster != nil && c.LeasesReassigned != win.metBefore.Cluster.LeasesReassigned {
			o.fail("cluster: %d leases reassigned in the window", c.LeasesReassigned-win.metBefore.Cluster.LeasesReassigned)
		}
	}
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
