package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dynamicrumor/internal/dynamic"
	"dynamicrumor/internal/engine"
	"dynamicrumor/internal/gen"
	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/obs"
	"dynamicrumor/internal/runner"
	"dynamicrumor/internal/service"
	"dynamicrumor/internal/sim"
	"dynamicrumor/internal/stats"
	"dynamicrumor/internal/store"
	"dynamicrumor/internal/xrand"
)

// Per-layer timings, taken by calling each layer's public functions in the
// benchmark process. Inputs derive from the run's seed; repetition counts
// are fixed, so every count reported here (events, steps, networks, bytes)
// is exact for a seed. The whole set takes a few seconds.

type metricSet map[string]float64

// layerBench runs every layer's timing and returns the metrics. tmp is a
// directory for the fsync'd store measurements.
func layerBench(seed uint64, tmp string) (metricSet, error) {
	m := make(metricSet)
	steps := []func(metricSet, uint64, string) error{
		benchSim, benchDynamic, benchEngine, benchRunner, benchStats, benchStore, benchObs,
	}
	for _, f := range steps {
		if err := f(m, seed, tmp); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// simRun times reps repetitions of run on net (rep i drawing from seed+i),
// returning ns per informative event and the total event count.
func simRun(net dynamic.Network, run func(dynamic.Network, *xrand.RNG, *sim.Scratch, *sim.Result) (*sim.Result, error),
	reps int, seed uint64) (nsPerEvent float64, events int, err error) {
	sc := sim.NewScratch()
	out := &sim.Result{}
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		r, err := run(net, xrand.New(seed+uint64(i)), sc, out)
		if err != nil {
			return 0, 0, err
		}
		if !r.Completed {
			return 0, 0, fmt.Errorf("sim: repetition %d did not complete", i)
		}
		events += r.Events
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(events), events, nil
}

func asyncRunner(stream int) func(dynamic.Network, *xrand.RNG, *sim.Scratch, *sim.Result) (*sim.Result, error) {
	return func(net dynamic.Network, rng *xrand.RNG, sc *sim.Scratch, res *sim.Result) (*sim.Result, error) {
		return sim.RunAsyncInto(net, sim.AsyncOptions{StreamVersion: stream}, rng, sc, res)
	}
}

func benchSim(m metricSet, seed uint64, _ string) error {
	totalEvents, totalReps := 0, 0
	for _, c := range []struct {
		n, reps int
	}{{256, 120}, {1024, 8}} {
		net := dynamic.NewStatic(gen.Clique(c.n))
		for _, stream := range []int{sim.StreamV1, sim.StreamV2} {
			ns, ev, err := simRun(net, asyncRunner(stream), c.reps, seed)
			if err != nil {
				return err
			}
			m[fmt.Sprintf("sim.async_v%d.n%d.ns_per_event", stream, c.n)] = ns
			totalEvents += ev
			totalReps += c.reps
		}
	}
	// The sparse kernels on a deterministic 2048-vertex hypercube.
	cube := dynamic.NewStatic(gen.Hypercube(11))
	kernels := []struct {
		name string
		run  func(dynamic.Network, *xrand.RNG, *sim.Scratch, *sim.Result) (*sim.Result, error)
		reps int
	}{
		{"async_sparse", asyncRunner(sim.StreamV1), 12},
		{"sync", func(n dynamic.Network, r *xrand.RNG, sc *sim.Scratch, res *sim.Result) (*sim.Result, error) {
			return sim.RunSyncInto(n, sim.SyncOptions{}, r, sc, res)
		}, 24},
		{"flood", func(n dynamic.Network, r *xrand.RNG, sc *sim.Scratch, res *sim.Result) (*sim.Result, error) {
			return sim.RunFloodingInto(n, sim.SyncOptions{}, r, sc, res)
		}, 40},
	}
	for _, k := range kernels {
		ns, ev, err := simRun(cube, k.run, k.reps, seed)
		if err != nil {
			return err
		}
		m["sim."+k.name+".ns_per_event"] = ns
		totalEvents += ev
		totalReps += k.reps
	}
	m["sim.events_per_rep"] = float64(totalEvents) / float64(totalReps)
	return nil
}

// timedNetwork wraps a dynamic network and times its per-step rebuilds.
// It forwards GraphAt unchanged, so the simulation sees the same graphs and
// consumes the same random stream as on the bare network.
type timedNetwork struct {
	dynamic.Network
	rebuild time.Duration
	calls   int
}

func (t *timedNetwork) GraphAt(step int, informed []bool) *graph.Graph {
	t0 := time.Now()
	g := t.Network.GraphAt(step, informed)
	t.rebuild += time.Since(t0)
	t.calls++
	return g
}

func benchDynamic(m metricSet, seed uint64, _ string) error {
	families := []struct {
		name  string
		reps  int
		build func(rng *xrand.RNG) (dynamic.Network, int, error)
	}{
		{"gnrho", 6, func(r *xrand.RNG) (dynamic.Network, int, error) {
			n, err := dynamic.NewGNRho(1000, 0.25, 0, r)
			if err != nil {
				return nil, 0, err
			}
			return n, n.StartVertex(), nil
		}},
		{"edge-markovian", 4, func(r *xrand.RNG) (dynamic.Network, int, error) {
			n, err := dynamic.NewEdgeMarkovian(1000, 0.05, 0.5, gen.Cycle(1000), r)
			return n, 0, err
		}},
		{"mobile", 8, func(r *xrand.RNG) (dynamic.Network, int, error) {
			n, err := dynamic.NewMobileAgents(1000, 16, r)
			return n, 0, err
		}},
		{"dynamic-star", 12, func(r *xrand.RNG) (dynamic.Network, int, error) {
			n, err := dynamic.NewDichotomyG2(1999, r)
			if err != nil {
				return nil, 0, err
			}
			return n, n.StartVertex(), nil
		}},
	}
	var rebuildAll, runAll time.Duration
	steps, reps := 0, 0
	for _, f := range families {
		var rebuild time.Duration
		calls := 0
		for i := 0; i < f.reps; i++ {
			s := seed + uint64(i)
			// The same repetition on the bare and the wrapped network must
			// agree exactly: timing may not perturb the simulation.
			bare, start, err := f.build(xrand.New(s))
			if err != nil {
				return err
			}
			want, err := sim.RunAsync(bare, sim.AsyncOptions{Start: start}, xrand.New(^s))
			if err != nil {
				return err
			}
			net, _, err := f.build(xrand.New(s))
			if err != nil {
				return err
			}
			tn := &timedNetwork{Network: net}
			t0 := time.Now()
			got, err := sim.RunAsync(tn, sim.AsyncOptions{Start: start}, xrand.New(^s))
			runAll += time.Since(t0)
			if err != nil {
				return err
			}
			if got.Events != want.Events || got.Steps != want.Steps || got.SpreadTime != want.SpreadTime || !got.Completed {
				return fmt.Errorf("dynamic: timing wrapper changed %s repetition %d", f.name, i)
			}
			rebuild += tn.rebuild
			calls += tn.calls
			steps += got.Steps
			reps++
		}
		rebuildAll += rebuild
		m["dynamic."+f.name+".rebuild_us"] = float64(rebuild.Nanoseconds()) / 1e3 / float64(calls)
	}
	m["dynamic.rebuild_share"] = rebuildAll.Seconds() / runAll.Seconds()
	m["dynamic.steps_per_rep"] = float64(steps) / float64(reps)
	// Construction of the deterministic shapes the workloads use.
	t0 := time.Now()
	const builds = 3
	for i := 0; i < builds; i++ {
		gen.Clique(1024)
		gen.Hypercube(11)
	}
	m["gen.build_ms"] = ms(time.Since(t0)) / builds
	return nil
}

// staticGrid is the deterministic sweep grid of dynamic-sweep: two
// hypercubes crossed with three protocols and two seeds.
func staticGrid() []engine.Scenario {
	var out []engine.Scenario
	for _, d := range []float64{10, 11} {
		for _, p := range []engine.ProtocolKind{engine.ProtocolAsync, engine.ProtocolSync, engine.ProtocolFlooding} {
			for s := 0; s < 2; s++ {
				out = append(out, engine.Scenario{
					Network:  engine.NetworkSpec{Family: "hypercube", Params: engine.Params{"d": d}},
					Protocol: p,
				})
			}
		}
	}
	return out
}

func benchEngine(m metricSet, seed uint64, _ string) error {
	// Canonicalization of a submission body, the admission path's parse.
	doc := []byte(fmt.Sprintf(`{"network":{"params":{"n":64},"family":"clique"},"protocol":"async","stream":1,"max_time":%d}`, 1000+seed%1000))
	const canon = 2000
	t0 := time.Now()
	for i := 0; i < canon; i++ {
		if _, _, err := engine.CanonicalizeJSON(doc); err != nil {
			return err
		}
	}
	m["engine.canonicalize_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / canon

	grid := staticGrid()
	t0 = time.Now()
	for _, sc := range grid {
		if _, err := engine.NewCompileSet().Compile(sc); err != nil {
			return err
		}
	}
	m["engine.compile_ms"] = ms(time.Since(t0)) / float64(len(grid))
	set := engine.NewCompileSet()
	for _, sc := range grid {
		if _, err := set.Compile(sc); err != nil {
			return err
		}
	}
	m["engine.compileset_networks"] = float64(set.Networks())
	return nil
}

func benchRunner(m metricSet, seed uint64, _ string) error {
	// A trivial job isolates the claim/turn/reduce machinery.
	job := func(rep int, rng *xrand.RNG, _ struct{}) (float64, error) { return float64(rep), nil }
	const reps = 200_000
	for _, p := range []int{1, 2} {
		var acc float64
		t0 := time.Now()
		err := runner.MapReduce(context.Background(), p, reps, xrand.New(seed), func() struct{} { return struct{}{} }, job,
			func(rep int, v float64) error { acc += v; return nil })
		if err != nil {
			return err
		}
		m[fmt.Sprintf("runner.claim_reduce_ns_per_rep.p%d", p)] = float64(time.Since(t0).Nanoseconds()) / reps
	}
	// Parallel efficiency on the dense shapes: throughput at two workers
	// over twice the throughput at one.
	var t1, t2 time.Duration
	for _, c := range []struct{ n, reps int }{{256, 160}, {1024, 10}} {
		sc := engine.Scenario{Network: engine.NetworkSpec{Family: "clique", Params: engine.Params{"n": float64(c.n)}}}
		for _, p := range []int{1, 2} {
			e := engine.Engine{Parallelism: p, Seed: seed}
			t0 := time.Now()
			if err := e.RunReduce(sc, c.reps, func(int, *sim.Result) error { return nil }); err != nil {
				return err
			}
			if p == 1 {
				t1 += time.Since(t0)
			} else {
				t2 += time.Since(t0)
			}
		}
	}
	m["runner.parallel_efficiency"] = t1.Seconds() / (2 * t2.Seconds())
	return nil
}

func benchStats(m metricSet, seed uint64, _ string) error {
	r := xrand.New(seed)
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = 5 + r.Exp(1)
	}
	const rounds = 50
	s := service.NewSummaryStream()
	t0 := time.Now()
	for k := 0; k < rounds; k++ {
		for _, v := range vals {
			s.Add(v)
		}
	}
	m["stats.stream_add_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(vals))

	// A worker's shard snapshot: clusterShard observations, encoded,
	// decoded, and folded by the coordinator's merger.
	shard := service.NewSummaryStream()
	for _, v := range vals[:clusterShard] {
		shard.Add(v)
	}
	blob, err := shard.MarshalBinary()
	if err != nil {
		return err
	}
	m["stats.snapshot_bytes"] = float64(len(blob))
	const codec = 5000
	t0 = time.Now()
	for i := 0; i < codec; i++ {
		if _, err := shard.MarshalBinary(); err != nil {
			return err
		}
	}
	m["stats.marshal_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / codec
	t0 = time.Now()
	for i := 0; i < codec; i++ {
		var back stats.Stream
		if err := back.UnmarshalBinary(blob); err != nil {
			return err
		}
	}
	m["stats.unmarshal_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / codec
	merger := stats.NewMerger(service.NewSummaryStream())
	chunks := len(vals) / clusterShard
	t0 = time.Now()
	// Fold the chunks in reverse so all but the last are buffered first,
	// the worst arrival order.
	for c := chunks - 1; c >= 0; c-- {
		if err := merger.Add(stats.Chunk{Start: c * clusterShard, Values: vals[c*clusterShard : (c+1)*clusterShard]}); err != nil {
			return err
		}
	}
	m["stats.merger_add_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(chunks)
	if merger.Next() != chunks*clusterShard {
		return errors.New("stats: merger did not fold every chunk")
	}
	return nil
}

func benchStore(m metricSet, seed uint64, tmp string) error {
	dir := filepath.Join(tmp, "store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, err := store.OpenJournal(filepath.Join(dir, "journal"), func(store.Record) error { return nil })
	if err != nil {
		return err
	}
	payload := []byte(strings.Repeat("x", 200))
	var appends []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if err := j.Append(store.Record{Type: 1, Payload: payload}); err != nil {
			j.Close()
			return err
		}
		appends = append(appends, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	j.Close()
	m["store.journal_append_us.p50"] = percentile(appends, 50)
	m["store.journal_append_us.p99"] = percentile(appends, 99)

	c, err := store.OpenCache(filepath.Join(dir, "cache"), 0)
	if err != nil {
		return err
	}
	summary := []byte(strings.Repeat("s", 380))
	const entries = 40
	keys := make([]string, entries)
	t0 := time.Now()
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", seed+uint64(i))
		if err := c.Put(keys[i], summary); err != nil {
			return err
		}
	}
	m["store.cache_put_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / entries
	t0 = time.Now()
	for _, k := range keys {
		if _, ok := c.Get(k); !ok {
			return errors.New("store: cache lost an entry")
		}
	}
	m["store.cache_get_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / entries

	// Ledger bytes per job, read from the /metrics document of an
	// in-process durable service after a fixed batch of tiny jobs. The
	// deployed daemon compacts its ledger past 1 MiB, so its own
	// journal_bytes gauge cannot be differenced across a long window.
	perJob, err := journalBytesPerJob(filepath.Join(dir, "state"), seed)
	if err != nil {
		return err
	}
	m["store.journal_bytes_per_job"] = perJob
	return nil
}

func journalBytesPerJob(stateDir string, seed uint64) (float64, error) {
	svc, err := service.New(service.Config{Budget: 2, StateDir: stateDir})
	if err != nil {
		return 0, err
	}
	defer svc.Close()
	h := svc.Handler()
	before, err := inProcMetrics(h)
	if err != nil {
		return 0, err
	}
	const jobs = 16
	var ids []string
	for i := 0; i < jobs; i++ {
		body := runBody("clique", map[string]int{"n": 64}, admissionStream, newReps, seed+uint64(i))
		v, err := inProcSubmit(h, body)
		if err != nil {
			return 0, err
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		if _, err := inProcWait(h, id); err != nil {
			return 0, err
		}
	}
	after, err := inProcMetrics(h)
	if err != nil {
		return 0, err
	}
	if before.Durability == nil || after.Durability == nil {
		return 0, errors.New("store: in-process service reports no durability")
	}
	return float64(after.Durability.JournalBytes-before.Durability.JournalBytes) / jobs, nil
}

func benchObs(m metricSet, _ uint64, _ string) error {
	h := obs.NewHistogram("bench", "benchmark histogram")
	const n = 1_000_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		h.Observe(time.Duration(i&0xfffff) * time.Microsecond)
	}
	m["obs.histogram_observe_ns"] = float64(time.Since(t0).Nanoseconds()) / n
	rec := obs.NewRecorder(64)
	now := time.Now()
	const spans = 200_000
	t0 = time.Now()
	// Fresh traces every 500 spans keep each under the per-trace cap, so
	// every Add appends.
	var tr *obs.Trace
	for i := 0; i < spans; i++ {
		if i%500 == 0 {
			tr = rec.Start(fmt.Sprintf("t%d", i), "run")
		}
		tr.Add(obs.Span{Name: "execute", Start: now, End: now})
	}
	m["obs.trace_add_ns"] = float64(time.Since(t0).Nanoseconds()) / spans
	return nil
}

// In-process service helpers, shared with the correctness check: requests
// go straight to the handler, no sockets.

func inProcDo(h http.Handler, method, path string, body []byte) (int, []byte) {
	var req *http.Request
	if body != nil {
		req = httptest.NewRequest(method, path, strings.NewReader(string(body)))
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func inProcSubmit(h http.Handler, body []byte) (jobView, error) {
	code, data := inProcDo(h, http.MethodPost, "/v1/runs", body)
	var v jobView
	if code != http.StatusOK && code != http.StatusAccepted {
		return v, fmt.Errorf("in-process submit: %d %s", code, data)
	}
	err := json.Unmarshal(data, &v)
	return v, err
}

func inProcWait(h http.Handler, id string) (jobView, error) {
	deadline := time.Now().Add(150 * time.Second)
	for {
		code, data := inProcDo(h, http.MethodGet, "/v1/runs/"+id, nil)
		var v jobView
		if code != http.StatusOK {
			return v, fmt.Errorf("in-process status %s: %d", id, code)
		}
		if err := json.Unmarshal(data, &v); err != nil {
			return v, err
		}
		if v.terminal() {
			return v, nil
		}
		if time.Now().After(deadline) {
			return v, fmt.Errorf("in-process job %s not settled", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func inProcMetrics(h http.Handler) (metricsDoc, error) {
	code, data := inProcDo(h, http.MethodGet, "/metrics", nil)
	if code != http.StatusOK {
		return metricsDoc{}, fmt.Errorf("in-process metrics: %d", code)
	}
	return parseMetricsJSON(data)
}
