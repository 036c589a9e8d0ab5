package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynamicrumor/internal/engine"
	"dynamicrumor/internal/obs"
	"dynamicrumor/internal/service"
)

// testLogger routes structured coordinator logs through the test log so
// failures carry the coordinator's own account of what happened.
func testLogger(t *testing.T) *slog.Logger {
	t.Helper()
	return slog.New(slog.NewTextHandler(testLogWriter{t}, nil))
}

type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// testRun builds a BackendRun for a clique scenario.
func testRun(t *testing.T, n, reps int, seed uint64) service.BackendRun {
	t.Helper()
	doc := `{"network":{"family":"clique","params":{"n":` + itoa(n) + `}}}`
	sc, err := engine.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := engine.Canonical(sc)
	if err != nil {
		t.Fatal(err)
	}
	return service.BackendRun{Scenario: sc, Canonical: canonical, Reps: reps, Seed: seed}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// newTestCoordinator starts a coordinator or fails the test.
func newTestCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// localResult runs the same ensemble on the single-node reference backend.
func localResult(t *testing.T, run service.BackendRun) service.BackendResult {
	t.Helper()
	run.Workers = 4
	res, err := service.LocalBackend{}.Run(context.Background(), run)
	if err != nil {
		t.Fatalf("local backend: %v", err)
	}
	return res
}

// mustMarshal snapshots a result's stream.
func mustMarshal(t *testing.T, res service.BackendResult) []byte {
	t.Helper()
	b, err := res.Stream.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// startWorkers launches n workers against url and returns a stop function
// that waits for them to exit.
func startWorkers(t *testing.T, url string, n int) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		w := NewWorker(WorkerConfig{Coordinator: url, Name: "test-worker", CPUs: 2})
		go func() {
			defer func() { done <- struct{}{} }()
			w.Run(ctx)
		}()
	}
	return func() {
		cancel()
		for i := 0; i < n; i++ {
			<-done
		}
	}
}

// TestClusterMatchesLocal: a 2-worker distributed run produces a stream
// byte-identical to the single-node reference backend, and the coordinator
// observes every repetition exactly once.
func TestClusterMatchesLocal(t *testing.T) {
	coord := newTestCoordinator(t, Config{LeaseTTL: 5 * time.Second, PollInterval: 5 * time.Millisecond, ShardSize: 7})
	defer coord.Close()
	mux := http.NewServeMux()
	coord.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	stop := startWorkers(t, ts.URL, 2)
	defer stop()

	run := testRun(t, 48, 100, 42)
	var observed atomic.Int64
	run.Observe = func(delta int64) { observed.Add(delta) }
	res, err := coord.Run(context.Background(), run)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	if got := observed.Load(); got != 100 {
		t.Errorf("observed %d repetitions, want 100", got)
	}

	want := localResult(t, testRun(t, 48, 100, 42))
	if res.Completed != want.Completed {
		t.Errorf("completed = %d, want %d", res.Completed, want.Completed)
	}
	if !bytes.Equal(mustMarshal(t, res), mustMarshal(t, want)) {
		t.Error("cluster stream differs from single-node stream")
	}
}

// TestClusterLeaseExpiryReassignment kills a worker mid-run: a hand-driven
// worker registers, leases the range at the merge frontier, heartbeats its
// liveness but never its lease, and never uploads. The lease must expire,
// return to the pool, and be re-executed by a live worker — and the merged
// result must still be byte-identical to the single-node run. The dead
// worker's late upload must be discarded as stale.
func TestClusterLeaseExpiryReassignment(t *testing.T) {
	const ttl = 300 * time.Millisecond
	coord := newTestCoordinator(t, Config{LeaseTTL: ttl, PollInterval: 5 * time.Millisecond, ShardSize: 25, Logger: testLogger(t)})
	defer coord.Close()
	mux := http.NewServeMux()
	coord.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// The vanishing worker grabs the first shard before any live worker
	// exists, so the merge frontier is deterministically blocked on it.
	dead := coord.register(RegisterRequest{Name: "vanishing", CPUs: 1})

	run := testRun(t, 48, 400, 7)
	type outcome struct {
		res service.BackendResult
		err error
	}
	runDone := make(chan outcome, 1)
	go func() {
		res, err := coord.Run(context.Background(), run)
		runDone <- outcome{res, err}
	}()

	var lease *Lease
	for deadline := time.Now().Add(5 * time.Second); lease == nil; {
		var err error
		lease, err = coord.grantLease(dead.WorkerID)
		if err != nil {
			t.Fatalf("grant to vanishing worker: %v", err)
		}
		if lease == nil {
			if time.Now().After(deadline) {
				t.Fatal("run never offered a lease")
			}
			time.Sleep(time.Millisecond)
		}
	}
	if lease.Start != 0 {
		t.Fatalf("vanishing worker leased [%d,%d), want the frontier shard [0,25)", lease.Start, lease.Start+lease.Count)
	}

	// Keep the worker's registration alive without renewing the lease, so
	// the reclaim is a lease expiry, not a worker sweep, and the late
	// upload exercises the stale path rather than 404.
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		tick := time.NewTicker(ttl / 4)
		defer tick.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-tick.C:
				coord.heartbeat(HeartbeatRequest{WorkerID: dead.WorkerID})
			}
		}
	}()
	defer func() { close(hbStop); <-hbDone }()

	stop := startWorkers(t, ts.URL, 2)
	defer stop()

	var got outcome
	select {
	case got = <-runDone:
	case <-time.After(30 * time.Second):
		t.Fatal("distributed run did not finish")
	}
	if got.err != nil {
		t.Fatalf("cluster run: %v", got.err)
	}
	if n := coord.ClusterStats().LeasesReassigned; n < 1 {
		t.Errorf("leases_reassigned = %d, want >= 1", n)
	}

	want := localResult(t, testRun(t, 48, 400, 7))
	if got.res.Completed != want.Completed {
		t.Errorf("completed = %d, want %d", got.res.Completed, want.Completed)
	}
	if !bytes.Equal(mustMarshal(t, got.res), mustMarshal(t, want)) {
		t.Error("stream after lease reassignment differs from single-node stream")
	}

	// The range was re-executed by someone else; the original lease is gone
	// and the dead worker's upload must change nothing.
	resp, err := coord.result(ResultRequest{WorkerID: dead.WorkerID, LeaseID: lease.ID, Values: make([]float64, lease.Count)})
	if err != nil {
		t.Fatalf("late upload: %v", err)
	}
	if !resp.Stale {
		t.Error("late upload of a reclaimed lease was not reported stale")
	}
}

// TestClusterFamilyGating: a worker restricted to another family is never
// offered the run; an unrestricted worker is.
func TestClusterFamilyGating(t *testing.T) {
	coord := newTestCoordinator(t, Config{LeaseTTL: 5 * time.Second, PollInterval: 5 * time.Millisecond, ShardSize: 10})
	defer coord.Close()

	gated := coord.register(RegisterRequest{Name: "gated", CPUs: 1, Families: []string{"gnrho"}})
	open := coord.register(RegisterRequest{Name: "open", CPUs: 1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() {
		_, err := coord.Run(ctx, testRun(t, 48, 10, 1))
		runDone <- err
	}()

	// Wait until the run is offering leases at all...
	var probe *Lease
	for deadline := time.Now().Add(5 * time.Second); probe == nil; {
		var err error
		probe, err = coord.grantLease(open.WorkerID)
		if err != nil {
			t.Fatal(err)
		}
		if probe == nil && time.Now().After(deadline) {
			t.Fatal("run never offered a lease")
		}
	}
	// ...then confirm the gated worker is still refused.
	if l, err := coord.grantLease(gated.WorkerID); err != nil || l != nil {
		t.Errorf("gated worker got lease %v, err %v; want none", l, err)
	}
	cancel()
	if err := <-runDone; err == nil {
		t.Error("cancelled run returned nil error")
	}
}

// TestClusterIntegrityCheck: an upload whose stream snapshot does not match
// its raw values fails the run loudly instead of poisoning the merge.
func TestClusterIntegrityCheck(t *testing.T) {
	coord := newTestCoordinator(t, Config{LeaseTTL: 5 * time.Second, ShardSize: 100})
	defer coord.Close()
	w := coord.register(RegisterRequest{Name: "corrupt", CPUs: 1})

	runDone := make(chan error, 1)
	go func() {
		_, err := coord.Run(context.Background(), testRun(t, 48, 10, 1))
		runDone <- err
	}()
	var lease *Lease
	for deadline := time.Now().Add(5 * time.Second); lease == nil; {
		var err error
		lease, err = coord.grantLease(w.WorkerID)
		if err != nil {
			t.Fatal(err)
		}
		if lease == nil && time.Now().After(deadline) {
			t.Fatal("run never offered a lease")
		}
	}
	resp, err := coord.result(ResultRequest{
		WorkerID:  w.WorkerID,
		LeaseID:   lease.ID,
		Values:    make([]float64, lease.Count),
		Completed: lease.Count,
		Stream:    []byte("not a snapshot"),
	})
	if err != nil || resp.Stale {
		t.Fatalf("upload: resp %+v, err %v", resp, err)
	}
	runErr := <-runDone
	if runErr == nil || !strings.Contains(runErr.Error(), "snapshot") {
		t.Errorf("run error = %v, want a snapshot integrity failure", runErr)
	}
}

// TestClusterUnknownWorker: protocol requests naming an unknown worker are
// answered 404 — the re-register signal.
func TestClusterUnknownWorker(t *testing.T) {
	coord := newTestCoordinator(t, Config{})
	defer coord.Close()
	mux := http.NewServeMux()
	coord.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/cluster/lease", "application/json", strings.NewReader(`{"worker_id":"w999999"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("lease for unknown worker: status %d, want 404", resp.StatusCode)
	}
}

// TestWorkerPipelinesLeaseClaims pins the double-buffered claim loop: while
// one shard executes, the claim for the next lease is already in flight, so
// the coordinator sees the claim for lease k+1 before lease k's result
// upload — and the worker never holds more than two leases at once. The fake
// coordinator enforces the ordering by refusing to acknowledge any upload
// until the second claim has arrived; a strictly serial worker would
// deadlock here and trip the watchdog timeouts.
func TestWorkerPipelinesLeaseClaims(t *testing.T) {
	doc := []byte(`{"network":{"family":"clique","params":{"n":32}}}`)
	sc, err := engine.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := engine.Canonical(sc)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	granted, resolved, maxHeld := 0, 0, 0
	secondClaim := make(chan struct{})

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/cluster/register", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(RegisterResponse{WorkerID: "w1", LeaseTTLMillis: 60_000, PollMillis: 5})
	})
	mux.HandleFunc("/v1/cluster/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(HeartbeatResponse{})
	})
	mux.HandleFunc("/v1/cluster/lease", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		granted++
		id := granted
		if held := granted - resolved; held > maxHeld {
			maxHeld = held
		}
		if id == 2 {
			close(secondClaim)
		}
		mu.Unlock()
		json.NewEncoder(w).Encode(LeaseResponse{Lease: &Lease{
			ID: "L" + itoa(id), Run: "r1", Scenario: canonical, Seed: 1,
			Start: (id - 1) * 4, Count: 4,
		}})
	})
	mux.HandleFunc("/v1/cluster/result", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-secondClaim:
		case <-time.After(10 * time.Second):
		}
		mu.Lock()
		resolved++
		mu.Unlock()
		json.NewEncoder(w).Encode(ResultResponse{})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	wk := NewWorker(WorkerConfig{Coordinator: ts.URL, Name: "pipeline-test", CPUs: 2})
	done := make(chan struct{})
	go func() { defer close(done); wk.Run(ctx) }()

	select {
	case <-secondClaim:
	case <-time.After(5 * time.Second):
		t.Fatal("no prefetch claim arrived while the first shard was outstanding")
	}
	// Let the loop run a few steady-state rounds before stopping.
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		r := resolved
		mu.Unlock()
		if r >= 3 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("worker did not complete 3 leases in time")
		case <-time.After(2 * time.Millisecond):
		}
	}
	cancel()
	<-done

	mu.Lock()
	defer mu.Unlock()
	if maxHeld > 2 {
		t.Errorf("worker held %d leases at once, want at most 2", maxHeld)
	}
}

// TestClusterTraceStitching: a distributed run's flight-recorder timeline
// carries both coordinator-side lease spans and the workers' own execute
// spans, stitched under the one trace ID minted at submission — one lease
// and one worker execute span per shard, plus a synthesized upload span.
func TestClusterTraceStitching(t *testing.T) {
	coord := newTestCoordinator(t, Config{LeaseTTL: 5 * time.Second, PollInterval: 5 * time.Millisecond, ShardSize: 7})
	defer coord.Close()
	mux := http.NewServeMux()
	coord.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	stop := startWorkers(t, ts.URL, 2)
	defer stop()

	run := testRun(t, 48, 100, 42)
	run.Trace = obs.NewTrace("tr-stitch", "jstitch")
	if _, err := coord.Run(context.Background(), run); err != nil {
		t.Fatalf("cluster run: %v", err)
	}

	view := run.Trace.View()
	if view.Trace != "tr-stitch" {
		t.Fatalf("trace ID = %q, want tr-stitch", view.Trace)
	}
	const shards = 15 // ceil(100/7)
	counts := make(map[string]int)
	for _, sp := range view.Spans {
		counts[sp.Name]++
		switch sp.Name {
		case "lease", "execute":
			if sp.Worker == "" {
				t.Errorf("%s span lacks a worker ID: %+v", sp.Name, sp)
			}
		}
		start, err0 := time.Parse(time.RFC3339Nano, sp.Start)
		end, err1 := time.Parse(time.RFC3339Nano, sp.End)
		if err0 != nil || err1 != nil {
			t.Errorf("span %s has unparseable timestamps: %+v", sp.Name, sp)
		} else if end.Before(start) {
			t.Errorf("span %s ends before it starts: %+v", sp.Name, sp)
		}
	}
	if counts["lease"] != shards {
		t.Errorf("lease spans = %d, want %d", counts["lease"], shards)
	}
	if counts["execute"] != shards {
		t.Errorf("worker execute spans = %d, want %d", counts["execute"], shards)
	}
	if counts["upload"] == 0 {
		t.Error("no synthesized upload spans")
	}
	// The range detail lets a timeline reader attribute shards: every
	// execute span names its [start,end) repetition range.
	for _, sp := range view.Spans {
		if sp.Name == "execute" && !strings.HasPrefix(sp.Detail, "[") {
			t.Errorf("execute span detail %q does not name its range", sp.Detail)
		}
	}
}
