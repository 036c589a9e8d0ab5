package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"dynamicrumor/internal/store"
)

// decodeSweep unmarshals a SweepView response body.
func decodeSweep(t *testing.T, data []byte) SweepView {
	t.Helper()
	var v SweepView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("decode sweep view %q: %v", data, err)
	}
	return v
}

// waitSweep polls the sweep until it reaches the wanted terminal state.
func waitSweep(t *testing.T, url, id string, want JobState) SweepView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		status, body := do(t, http.MethodGet, url+"/v1/sweeps/"+id, "")
		if status != http.StatusOK {
			t.Fatalf("sweep poll returned %d: %s", status, body)
		}
		v := decodeSweep(t, body)
		if v.State == want {
			return v
		}
		if v.State.Terminal() {
			t.Fatalf("sweep %s settled in state %s, want %s", id, v.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("sweep %s did not reach state %s in time", id, want)
	return SweepView{}
}

// sweepBody is the canonical test grid: deterministic families so network
// construction is shared, two sizes, two seeds, async × sync.
const sweepBody = `{"sweep":{"family":"clique","n":[24,32],"protocols":["async","sync"],"seeds":[1,2]},"reps":3}`

// TestSweepPlannerGrid pins the planner's deterministic cell order (n
// outermost, sorted param keys, then protocol, stream, seed innermost) and
// the grid-point labels.
func TestSweepPlannerGrid(t *testing.T) {
	var req SweepRequest
	if err := json.Unmarshal([]byte(sweepBody), &req); err != nil {
		t.Fatal(err)
	}
	cells, err := planSweep(req, 0)
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, c := range cells {
		labels = append(labels, c.label)
	}
	want := []string{
		"n=24,protocol=async,seed=1",
		"n=24,protocol=async,seed=2",
		"n=24,protocol=sync,seed=1",
		"n=24,protocol=sync,seed=2",
		"n=32,protocol=async,seed=1",
		"n=32,protocol=async,seed=2",
		"n=32,protocol=sync,seed=1",
		"n=32,protocol=sync,seed=2",
	}
	if fmt.Sprint(labels) != fmt.Sprint(want) {
		t.Errorf("planned cells:\n got %v\nwant %v", labels, want)
	}
	// Each cell's key must equal the standalone runKey of its canonical form.
	for _, c := range cells {
		if c.key != runKey(c.canonical, c.seed, req.Reps) {
			t.Errorf("cell %s key mismatch", c.label)
		}
	}
}

// TestSweepPlannerValidation: malformed grids fail loudly at planning time,
// naming the offending cell where one exists.
func TestSweepPlannerValidation(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string
	}{
		{"no family", `{"sweep":{"n":[8]},"reps":1}`, `"family"`},
		{"n twice", `{"sweep":{"family":"clique","n":[8],"params":{"n":[8]}},"reps":1}`, `"n" given both`},
		{"empty param grid", `{"sweep":{"family":"gnrho","n":[8],"params":{"rho":[]}},"reps":1}`, "empty grid"},
		{"stream on sync cell", `{"sweep":{"family":"clique","n":[8],"protocols":["sync"],"streams":[2]},"reps":1}`, "stream applies to async"},
		{"unknown protocol", `{"sweep":{"family":"clique","n":[8],"protocols":["gossip"]},"reps":1}`, "unknown protocol"},
		{"too many cells", `{"sweep":{"family":"clique","n":[1],"seeds":[` + manySeeds(maxSweepCells+1) + `]},"reps":1}`, "exceeding the limit"},
	}
	for _, tc := range cases {
		var req SweepRequest
		if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_, err := planSweep(req, 0)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func manySeeds(n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = fmt.Sprint(i)
	}
	return strings.Join(parts, ",")
}

// TestSweepCellsByteIdenticalToStandaloneRuns is the tentpole pin: every
// cell summary of a native sweep — executed with shared compiled networks —
// is byte-identical to the equivalent standalone POST /v1/runs, at worker
// budgets 1, 3 and 8.
func TestSweepCellsByteIdenticalToStandaloneRuns(t *testing.T) {
	// Reference summaries from standalone runs on an untouched service.
	_, ref := newTestServer(t, Config{Budget: 2})
	reference := make(map[string]json.RawMessage)
	var refReq SweepRequest
	if err := json.Unmarshal([]byte(sweepBody), &refReq); err != nil {
		t.Fatal(err)
	}
	cells, err := planSweep(refReq, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		body := fmt.Sprintf(`{"scenario":%s,"reps":%d,"seed":%d}`, c.canonical, refReq.Reps, c.seed)
		status, resp := do(t, http.MethodPost, ref.URL+"/v1/runs", body)
		if status != http.StatusAccepted && status != http.StatusOK {
			t.Fatalf("standalone submit of %s returned %d: %s", c.label, status, resp)
		}
		v := waitState(t, ref.URL, decodeJob(t, resp).ID, StateDone)
		reference[c.label] = v.Summary
	}

	for _, budget := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("budget%d", budget), func(t *testing.T) {
			_, ts := newTestServer(t, Config{Budget: budget})
			status, body := do(t, http.MethodPost, ts.URL+"/v1/sweeps", sweepBody)
			if status != http.StatusAccepted {
				t.Fatalf("sweep submit returned %d: %s", status, body)
			}
			sv := waitSweep(t, ts.URL, decodeSweep(t, body).ID, StateDone)
			if sv.Total != len(cells) || sv.Settled != sv.Total {
				t.Fatalf("sweep settled %d/%d cells, want %d", sv.Settled, sv.Total, len(cells))
			}
			// 2 distinct (family, n) shapes serve all 8 cells: one clique per
			// size, shared across both protocols and both seeds.
			if sv.SharedNetworks != 2 {
				t.Errorf("shared networks = %d, want 2", sv.SharedNetworks)
			}
			for _, cv := range sv.Cells {
				want, ok := reference[cv.Cell]
				if !ok {
					t.Fatalf("unplanned cell %q in aggregate table", cv.Cell)
				}
				if !bytes.Equal(cv.Summary, want) {
					t.Errorf("budget %d cell %s summary differs from standalone run:\n got: %s\nwant: %s",
						budget, cv.Cell, cv.Summary, want)
				}
			}
		})
	}
}

// TestSweepReusesResultCache: cells whose keys were already computed by
// standalone runs are served from the cache (the whole-grid case answers
// 200 with zero new work), and the cell views say so.
func TestSweepReusesResultCache(t *testing.T) {
	svc, ts := newTestServer(t, Config{Budget: 2})
	status, body := do(t, http.MethodPost, ts.URL+"/v1/sweeps", sweepBody)
	if status != http.StatusAccepted {
		t.Fatalf("first sweep returned %d: %s", status, body)
	}
	// One cache lookup per cell, as for a single run.
	if got := svc.metrics().Latency["cache_lookup"].Count; got != 8 {
		t.Errorf("cache_lookup observations = %d for an 8-cell sweep, want 8", got)
	}
	first := waitSweep(t, ts.URL, decodeSweep(t, body).ID, StateDone)

	status, body = do(t, http.MethodPost, ts.URL+"/v1/sweeps", sweepBody)
	if status != http.StatusOK {
		t.Fatalf("repeat sweep returned %d, want 200 (all cells cached): %s", status, body)
	}
	second := decodeSweep(t, body)
	if second.State != StateDone || second.CacheHits != second.Total {
		t.Fatalf("repeat sweep state %s with %d/%d cache hits, want done with all hits",
			second.State, second.CacheHits, second.Total)
	}
	detail, ok := svc.sweepView(second.ID)
	if !ok {
		t.Fatal("repeat sweep vanished")
	}
	for i, cv := range detail.Cells {
		if !cv.CacheHit {
			t.Errorf("repeat cell %s not marked as a cache hit", cv.Cell)
		}
		if !bytes.Equal(cv.Summary, first.Cells[i].Summary) {
			t.Errorf("cached cell %s summary differs from the first sweep's", cv.Cell)
		}
	}
	if m := svc.metrics(); m.Sweeps == nil || m.Sweeps.Submitted != 2 || m.Sweeps.Done != 2 {
		t.Errorf("sweep metrics wrong: %+v", svc.metrics().Sweeps)
	}
}

// TestSweepEventsGolden pins the SSE stream byte-for-byte: a subscriber
// joining after completion replays one "cell" event per cell, in settlement
// order, then the final "sweep" event — each cell summary identical to the
// aggregate table's.
func TestSweepEventsGolden(t *testing.T) {
	// Budget 1 serializes the cells in FIFO order, so settlement order —
	// and therefore the event log — is deterministic.
	_, ts := newTestServer(t, Config{Budget: 1})
	body := `{"sweep":{"family":"clique","n":[16,24],"seeds":[1]},"reps":2}`
	status, resp := do(t, http.MethodPost, ts.URL+"/v1/sweeps", body)
	if status != http.StatusAccepted {
		t.Fatalf("sweep submit returned %d: %s", status, resp)
	}
	id := decodeSweep(t, resp).ID
	waitSweep(t, ts.URL, id, StateDone)

	status, events := do(t, http.MethodGet, ts.URL+"/v1/sweeps/"+id+"/events", "")
	if status != http.StatusOK {
		t.Fatalf("events returned %d: %s", status, events)
	}
	checkGolden(t, "sweep_events.sse", events)

	status, detail := do(t, http.MethodGet, ts.URL+"/v1/sweeps/"+id, "")
	if status != http.StatusOK {
		t.Fatalf("sweep status returned %d: %s", status, detail)
	}
	checkGolden(t, "sweep_status.json", detail)
}

// TestSweepEventsFollowLive: a subscriber connected before the cells settle
// receives the same events as a post-completion replay.
func TestSweepEventsFollowLive(t *testing.T) {
	gate := &gateBackend{release: make(chan struct{})}
	_, ts := newTestServer(t, Config{Budget: 1, Backend: gate})
	body := `{"sweep":{"family":"clique","n":[16,24],"seeds":[1]},"reps":2}`
	status, resp := do(t, http.MethodPost, ts.URL+"/v1/sweeps", body)
	if status != http.StatusAccepted {
		t.Fatalf("sweep submit returned %d: %s", status, resp)
	}
	id := decodeSweep(t, resp).ID

	type result struct {
		body []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		r, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/events")
		if err != nil {
			done <- result{err: err}
			return
		}
		defer r.Body.Close()
		var buf bytes.Buffer
		_, err = buf.ReadFrom(r.Body)
		done <- result{body: buf.Bytes(), err: err}
	}()
	time.Sleep(20 * time.Millisecond) // let the subscriber attach mid-sweep
	close(gate.release)
	live := <-done
	if live.err != nil {
		t.Fatalf("live event stream: %v", live.err)
	}
	waitSweep(t, ts.URL, id, StateDone)
	_, replay := do(t, http.MethodGet, ts.URL+"/v1/sweeps/"+id+"/events", "")
	if !bytes.Equal(live.body, replay) {
		t.Errorf("live stream differs from replay:\nlive: %s\nreplay: %s", live.body, replay)
	}
	if n := strings.Count(string(replay), "event: cell"); n != 2 {
		t.Errorf("replay carries %d cell events, want 2", n)
	}
	if n := strings.Count(string(replay), "event: sweep"); n != 1 {
		t.Errorf("replay carries %d sweep events, want 1", n)
	}
}

// TestSweepCancel: DELETE cancels the unfinished cells and the sweep
// finalizes as cancelled; already-settled cells keep their results.
func TestSweepCancel(t *testing.T) {
	gate := &gateBackend{release: make(chan struct{})}
	_, ts := newTestServer(t, Config{Budget: 1, Backend: gate})
	status, resp := do(t, http.MethodPost, ts.URL+"/v1/sweeps", sweepBody)
	if status != http.StatusAccepted {
		t.Fatalf("sweep submit returned %d: %s", status, resp)
	}
	id := decodeSweep(t, resp).ID
	status, resp = do(t, http.MethodDelete, ts.URL+"/v1/sweeps/"+id, "")
	if status != http.StatusOK && status != http.StatusAccepted {
		t.Fatalf("sweep cancel returned %d: %s", status, resp)
	}
	close(gate.release)
	sv := waitSweep(t, ts.URL, id, StateCancelled)
	if sv.Settled != sv.Total {
		t.Errorf("cancelled sweep settled %d/%d cells", sv.Settled, sv.Total)
	}
	if status, _ := do(t, http.MethodDelete, ts.URL+"/v1/sweeps/"+id, ""); status != http.StatusConflict {
		t.Errorf("second cancel returned %d, want 409", status)
	}
	if status, _ := do(t, http.MethodDelete, ts.URL+"/v1/sweeps/snope", ""); status != http.StatusNotFound {
		t.Errorf("cancel of unknown sweep returned %d, want 404", status)
	}
}

// TestSweepRecoveryAfterKill is the crash pin: a daemon killed mid-sweep
// re-plans the journalled sweep on restart, re-adopts the unfinished cells
// under their original identities, and completes them with summaries
// byte-identical to an uninterrupted reference.
func TestSweepRecoveryAfterKill(t *testing.T) {
	stateDir := t.TempDir()
	body := `{"sweep":{"family":"clique","n":[16,24],"seeds":[1]},"reps":2}`

	gate := &gateBackend{release: make(chan struct{})}
	svc1, ts1 := startPersistServer(t, Config{Budget: 1, StateDir: stateDir, Backend: gate, Logger: testLogger(t)})
	status, resp := do(t, http.MethodPost, ts1.URL+"/v1/sweeps", body)
	if status != http.StatusAccepted {
		t.Fatalf("sweep submit returned %d: %s", status, resp)
	}
	id := decodeSweep(t, resp).ID
	stopPersistServer(svc1, ts1) // dies with every cell unfinished

	svc2, ts2 := startPersistServer(t, Config{Budget: 2, StateDir: stateDir, Logger: testLogger(t)})
	defer stopPersistServer(svc2, ts2)
	if keys := svc2.RecoveredKeys(); len(keys) != 2 {
		t.Fatalf("recovered %d run keys, want 2 (one per cell)", len(keys))
	}
	recovered := waitSweep(t, ts2.URL, id, StateDone)
	if m := svc2.metrics(); m.Sweeps == nil || m.Sweeps.Recovered != 1 {
		t.Errorf("sweeps_recovered metric missing or wrong: %+v", svc2.metrics().Sweeps)
	}
	// Cell jobs resurface under their original IDs.
	if status, _ := do(t, http.MethodGet, ts2.URL+"/v1/runs/"+id+".c000", ""); status != http.StatusOK {
		t.Errorf("recovered cell %s.c000 not found: status %d", id, status)
	}

	// Reference: the same sweep on a fresh, undisturbed service.
	svc3, ts3 := startPersistServer(t, Config{Budget: 2})
	defer stopPersistServer(svc3, ts3)
	status, resp = do(t, http.MethodPost, ts3.URL+"/v1/sweeps", body)
	if status != http.StatusAccepted {
		t.Fatalf("reference sweep returned %d: %s", status, resp)
	}
	reference := waitSweep(t, ts3.URL, decodeSweep(t, resp).ID, StateDone)
	for i := range reference.Cells {
		if !bytes.Equal(recovered.Cells[i].Summary, reference.Cells[i].Summary) {
			t.Errorf("recovered cell %s summary differs from uninterrupted run:\n got: %s\nwant: %s",
				recovered.Cells[i].Cell, recovered.Cells[i].Summary, reference.Cells[i].Summary)
		}
	}
}

// TestSweepRecoverySettlesFromDurableCache: cells whose results were durably
// cached before the crash settle immediately at restart — the sweep
// finalizes during replay without re-executing anything.
func TestSweepRecoverySettlesFromDurableCache(t *testing.T) {
	stateDir, cacheDir := t.TempDir(), t.TempDir()
	body := `{"sweep":{"family":"clique","n":[16,24],"seeds":[1]},"reps":2}`

	svc1, ts1 := startPersistServer(t, Config{Budget: 2, StateDir: stateDir, CacheDir: cacheDir})
	status, resp := do(t, http.MethodPost, ts1.URL+"/v1/sweeps", body)
	if status != http.StatusAccepted {
		t.Fatalf("sweep submit returned %d: %s", status, resp)
	}
	id := decodeSweep(t, resp).ID
	first := waitSweep(t, ts1.URL, id, StateDone)
	// Kill AFTER completion but simulate a lost sweep settle record by
	// rewriting the journal to just the sweep submit record.
	svc1.mu.Lock()
	sw := svc1.sweeps[id]
	payload, _ := json.Marshal(sweepRecord{ID: sw.id, Request: sw.request, DefaultStream: sw.defaultStream, SubmittedAt: sw.submitted})
	if err := svc1.journal.Rewrite([]store.Record{{Type: recSweepSubmit, Payload: payload}}); err != nil {
		svc1.mu.Unlock()
		t.Fatal(err)
	}
	svc1.mu.Unlock()
	stopPersistServer(svc1, ts1)

	svc2, ts2 := startPersistServer(t, Config{Budget: 2, StateDir: stateDir, CacheDir: cacheDir, Logger: testLogger(t)})
	defer stopPersistServer(svc2, ts2)
	if keys := svc2.RecoveredKeys(); len(keys) != 0 {
		t.Fatalf("recovered %d run keys, want 0 (all cells durably cached)", len(keys))
	}
	status, resp = do(t, http.MethodGet, ts2.URL+"/v1/sweeps/"+id, "")
	if status != http.StatusOK {
		t.Fatalf("recovered sweep not found: %d: %s", status, resp)
	}
	second := decodeSweep(t, resp)
	if second.State != StateDone || second.CacheHits != second.Total {
		t.Fatalf("recovered sweep state %s with %d/%d cache hits, want done with all", second.State, second.CacheHits, second.Total)
	}
	for i := range first.Cells {
		if !bytes.Equal(first.Cells[i].Summary, second.Cells[i].Summary) {
			t.Errorf("cell %s summary changed across restart", first.Cells[i].Cell)
		}
	}
}

// TestRateLimitSubmissions: with -rate configured, work-creating submissions
// beyond the burst are refused with 429 + Retry-After, while cache hits pass
// untouched. The pinned test clock never refills the bucket, making the
// outcome deterministic.
func TestRateLimitSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Config{Budget: 2, RatePerSec: 1, RateBurst: 2})

	submit := func(n int) (int, []byte, string) {
		body := fmt.Sprintf(`{"scenario":{"network":{"family":"clique","params":{"n":%d}}},"reps":2,"seed":1}`, n)
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes(), resp.Header.Get("Retry-After")
	}

	// Burst of 2 admits two novel submissions.
	for i, n := range []int{16, 24} {
		if status, body, _ := submit(n); status != http.StatusAccepted {
			t.Fatalf("submission %d returned %d: %s", i, status, body)
		}
	}
	// The third is over budget: 429 with a Retry-After hint.
	status, body, retry := submit(32)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-rate submission returned %d, want 429: %s", status, body)
	}
	if retry == "" {
		t.Error("429 response carries no Retry-After header")
	}
	if !strings.Contains(string(body), "rate limit") {
		t.Errorf("429 body %s does not mention the rate limit", body)
	}
	// Cache hits are exempt: wait out one admitted run, then resubmit it.
	var v JobView
	for _, id := range []string{"j00000001"} {
		v = waitState(t, ts.URL, id, StateDone)
	}
	_ = v
	if status, body, _ := submit(16); status != http.StatusOK {
		t.Fatalf("cache-hit resubmission returned %d, want 200 (exempt): %s", status, body)
	}
	// Sweeps consult the same limiter.
	status, resp := do(t, http.MethodPost, ts.URL+"/v1/sweeps", sweepBody)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-rate sweep returned %d, want 429: %s", status, resp)
	}
}
