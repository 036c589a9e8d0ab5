package service

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testLogger routes structured service logs through the test log so failures
// carry the service's own account of what happened.
func testLogger(t *testing.T) *slog.Logger {
	t.Helper()
	return slog.New(slog.NewTextHandler(testLogWriter{t}, nil))
}

type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// startPersistServer starts a service whose shutdown the test drives itself —
// the restart tests close one "process" and open the next over the same
// directories.
func startPersistServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	if cfg.Clock == nil {
		cfg.Clock = testClock
	}
	if cfg.Version == "" {
		cfg.Version = "test"
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc, httptest.NewServer(svc.Handler())
}

// stopPersistServer simulates the process dying: the listener goes away and
// the service shuts down. Shutdown cancellations are not journalled as
// settlements, so the ledger left behind is exactly a crash's.
func stopPersistServer(svc *Service, ts *httptest.Server) {
	ts.Close()
	svc.Close()
}

// TestDiskCacheSurvivesRestart: a summary computed before a restart is served
// byte-identically from the persistent cache by the next process.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	cacheDir := t.TempDir()

	svc1, ts1 := startPersistServer(t, Config{Budget: 2, CacheDir: cacheDir})
	status, body := do(t, http.MethodPost, ts1.URL+"/v1/runs", submitBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit returned %d: %s", status, body)
	}
	first := waitState(t, ts1.URL, decodeJob(t, body).ID, StateDone)
	if len(first.Summary) == 0 {
		t.Fatal("completed job has no summary")
	}
	stopPersistServer(svc1, ts1)

	svc2, ts2 := startPersistServer(t, Config{Budget: 2, CacheDir: cacheDir})
	defer stopPersistServer(svc2, ts2)
	status, body = do(t, http.MethodPost, ts2.URL+"/v1/runs", submitBody)
	if status != http.StatusOK {
		t.Fatalf("resubmit after restart returned %d, want 200 (cache hit): %s", status, body)
	}
	second := decodeJob(t, body)
	if !second.CacheHit {
		t.Error("resubmission after restart was not a cache hit")
	}
	if !bytes.Equal(first.Summary, second.Summary) {
		t.Errorf("summary changed across restart:\n was: %s\n now: %s", first.Summary, second.Summary)
	}
	m := svc2.metrics()
	if m.Durability == nil || m.Durability.DiskCache == nil {
		t.Fatal("durability metrics absent with a cache dir configured")
	}
	if m.Durability.DiskCache.Hits < 1 {
		t.Errorf("disk cache hits = %d, want >= 1", m.Durability.DiskCache.Hits)
	}
}

// TestDiskCacheCorruptionQuarantined: a flipped bit in a persisted entry must
// surface as a miss — the run re-executes — with the damaged file moved to
// the quarantine directory, never served.
func TestDiskCacheCorruptionQuarantined(t *testing.T) {
	cacheDir := t.TempDir()

	svc1, ts1 := startPersistServer(t, Config{Budget: 2, CacheDir: cacheDir})
	status, body := do(t, http.MethodPost, ts1.URL+"/v1/runs", submitBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit returned %d: %s", status, body)
	}
	first := waitState(t, ts1.URL, decodeJob(t, body).ID, StateDone)
	stopPersistServer(svc1, ts1)

	// Flip one payload byte of the entry on disk.
	path := filepath.Join(cacheDir, first.Key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	svc2, ts2 := startPersistServer(t, Config{Budget: 2, CacheDir: cacheDir})
	defer stopPersistServer(svc2, ts2)
	status, body = do(t, http.MethodPost, ts2.URL+"/v1/runs", submitBody)
	if status != http.StatusAccepted {
		t.Fatalf("resubmit over a corrupt entry returned %d, want 202 (miss): %s", status, body)
	}
	second := waitState(t, ts2.URL, decodeJob(t, body).ID, StateDone)
	if second.CacheHit {
		t.Error("corrupt entry was served as a cache hit")
	}
	if !bytes.Equal(first.Summary, second.Summary) {
		t.Error("re-executed summary differs from the original")
	}
	m := svc2.metrics()
	if m.Durability.DiskCache.Corrupt < 1 {
		t.Errorf("corrupt_quarantined = %d, want >= 1", m.Durability.DiskCache.Corrupt)
	}
	if _, err := os.Stat(filepath.Join(cacheDir, "quarantine", first.Key)); err != nil {
		t.Errorf("corrupt entry not quarantined: %v", err)
	}
}

// gateBackend blocks every run until released, so a job can be pinned
// in-flight across a shutdown.
type gateBackend struct {
	release chan struct{}
}

func (b *gateBackend) Run(ctx context.Context, run BackendRun) (BackendResult, error) {
	select {
	case <-b.release:
	case <-ctx.Done():
		return BackendResult{}, ctx.Err()
	}
	return LocalBackend{}.Run(ctx, run)
}

// TestLedgerRecoversInflightJob: a job in flight when the process dies is
// re-adopted under its original ID on restart, runs to completion, and its
// summary is byte-identical to an uninterrupted run's.
func TestLedgerRecoversInflightJob(t *testing.T) {
	stateDir := t.TempDir()

	gate := &gateBackend{release: make(chan struct{})}
	svc1, ts1 := startPersistServer(t, Config{Budget: 2, StateDir: stateDir, Backend: gate, Logger: testLogger(t)})
	status, body := do(t, http.MethodPost, ts1.URL+"/v1/runs", submitBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit returned %d: %s", status, body)
	}
	id := decodeJob(t, body).ID
	stopPersistServer(svc1, ts1) // dies with the job unfinished

	svc2, ts2 := startPersistServer(t, Config{Budget: 2, StateDir: stateDir, Logger: testLogger(t)})
	defer stopPersistServer(svc2, ts2)
	if keys := svc2.RecoveredKeys(); len(keys) != 1 {
		t.Fatalf("recovered %d run keys, want 1", len(keys))
	}
	recovered := waitState(t, ts2.URL, id, StateDone)
	if recovered.ID != id {
		t.Errorf("recovered job ID %s, want %s", recovered.ID, id)
	}
	if m := svc2.metrics(); m.Durability == nil || m.Durability.JobsRecovered != 1 {
		t.Errorf("jobs_recovered metric missing or wrong: %+v", m.Durability)
	}

	// Reference: the same submission on a fresh, undisturbed service.
	svc3, ts3 := startPersistServer(t, Config{Budget: 2})
	defer stopPersistServer(svc3, ts3)
	status, body = do(t, http.MethodPost, ts3.URL+"/v1/runs", submitBody)
	if status != http.StatusAccepted {
		t.Fatalf("reference submit returned %d: %s", status, body)
	}
	reference := waitState(t, ts3.URL, decodeJob(t, body).ID, StateDone)
	if !bytes.Equal(recovered.Summary, reference.Summary) {
		t.Errorf("recovered summary differs from an uninterrupted run:\n got: %s\nwant: %s", recovered.Summary, reference.Summary)
	}
}

// TestLedgerSettlesCancelledJob: an explicit client cancellation is a settled
// state — the job must NOT come back after a restart (unlike a shutdown
// cancellation, which is deliberately left open).
func TestLedgerSettlesCancelledJob(t *testing.T) {
	stateDir := t.TempDir()

	gate := &gateBackend{release: make(chan struct{})}
	svc1, ts1 := startPersistServer(t, Config{Budget: 1, StateDir: stateDir, Backend: gate})
	// Job A occupies the whole budget; job B stays queued.
	status, bodyA := do(t, http.MethodPost, ts1.URL+"/v1/runs", submitBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit A returned %d: %s", status, bodyA)
	}
	bodyB := `{"scenario":{"network":{"family":"clique","params":{"n":32}}},"reps":4,"seed":2}`
	status, respB := do(t, http.MethodPost, ts1.URL+"/v1/runs", bodyB)
	if status != http.StatusAccepted {
		t.Fatalf("submit B returned %d: %s", status, respB)
	}
	idB := decodeJob(t, respB).ID
	if status, resp := do(t, http.MethodDelete, ts1.URL+"/v1/runs/"+idB, ""); status != http.StatusOK {
		t.Fatalf("cancel B returned %d: %s", status, resp)
	}
	stopPersistServer(svc1, ts1)

	svc2, ts2 := startPersistServer(t, Config{Budget: 2, StateDir: stateDir})
	defer stopPersistServer(svc2, ts2)
	// Job A (shutdown-cancelled, unsettled) comes back; job B (client-
	// cancelled, settled) must not.
	if keys := svc2.RecoveredKeys(); len(keys) != 1 {
		t.Fatalf("recovered %d run keys, want 1 (job A only)", len(keys))
	}
	if status, _ := do(t, http.MethodGet, ts2.URL+"/v1/runs/"+idB, ""); status != http.StatusNotFound {
		t.Errorf("cancelled job %s resurfaced after restart: status %d", idB, status)
	}
}

// TestJournalFailureRefusesSubmission: when the ledger cannot record a new
// run, the submission is refused with 500 and leaves no trace — no job and
// no cache miss counted for a run that was never accepted.
func TestJournalFailureRefusesSubmission(t *testing.T) {
	svc, ts := startPersistServer(t, Config{Budget: 2, StateDir: t.TempDir()})
	defer stopPersistServer(svc, ts)
	if err := svc.journal.Close(); err != nil {
		t.Fatal(err)
	}
	status, body := do(t, http.MethodPost, ts.URL+"/v1/runs", submitBody)
	if status != http.StatusInternalServerError {
		t.Fatalf("submit with a closed journal returned %d, want 500: %s", status, body)
	}
	if m := svc.metrics(); m.Cache.Misses != 0 {
		t.Errorf("cache.misses = %d after a refused submission, want 0", m.Cache.Misses)
	}
	if runs := svc.jobViews(); len(runs) != 0 {
		t.Errorf("refused submission left %d jobs", len(runs))
	}
}

// unreadyBackend reports not-ready until flipped, mimicking a coordinator
// with no live workers.
type unreadyBackend struct {
	ready bool // guarded by the service mutex: Ready is only called under it
}

func (b *unreadyBackend) Run(ctx context.Context, run BackendRun) (BackendResult, error) {
	return LocalBackend{}.Run(ctx, run)
}

func (b *unreadyBackend) Ready() error {
	if b.ready {
		return nil
	}
	return &UnavailableError{Reason: "no live workers", RetryAfter: 7 * time.Second}
}

// TestSubmitUnavailableBackend: fresh work against a backend with no capacity
// fails fast with 503 and a Retry-After hint — but cache hits are exempt,
// because they need no backend at all.
func TestSubmitUnavailableBackend(t *testing.T) {
	backend := &unreadyBackend{}
	svc, ts := newTestServer(t, Config{Budget: 2, Backend: backend})

	status, body := do(t, http.MethodPost, ts.URL+"/v1/runs", submitBody)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("submit to an unready backend returned %d, want 503: %s", status, body)
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(submitBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want \"7\"", got)
	}

	// Capacity returns; the run completes and lands in the cache.
	svc.mu.Lock()
	backend.ready = true
	svc.mu.Unlock()
	status, body = do(t, http.MethodPost, ts.URL+"/v1/runs", submitBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit after recovery returned %d: %s", status, body)
	}
	waitState(t, ts.URL, decodeJob(t, body).ID, StateDone)

	// Capacity vanishes again: the cached result must still be served.
	svc.mu.Lock()
	backend.ready = false
	svc.mu.Unlock()
	status, body = do(t, http.MethodPost, ts.URL+"/v1/runs", submitBody)
	if status != http.StatusOK || !decodeJob(t, body).CacheHit {
		t.Errorf("cache hit blocked by an unready backend: status %d, body %s", status, body)
	}
}

// TestSubmitBodyTooLarge: an oversized submission is refused with 413 on
// both submission endpoints.
func TestSubmitBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{Budget: 2})
	for path, huge := range map[string]string{
		"/v1/runs":   `{"scenario":{"name":"` + strings.Repeat("x", maxBodyBytes+1024) + `"}}`,
		"/v1/sweeps": `{"sweep":{"name":"` + strings.Repeat("x", maxBodyBytes+1024) + `"}}`,
	} {
		status, body := do(t, http.MethodPost, ts.URL+path, huge)
		if status != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized submission to %s: status %d, body %.100s", path, status, body)
		}
	}
}
