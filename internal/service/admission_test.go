package service

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"dynamicrumor/internal/engine"
	"dynamicrumor/internal/store"
)

// TestAdmissionLadder pins how a run enters the service, for every origin ×
// outcome: a live submission, a live sweep cell, a recovered job and a
// recovered sweep cell are each served from the result cache, coalesced onto
// an identical in-flight leader, or enqueued. Every row runs on one worker
// held by a blocker run, so queued jobs stay queued while the row is read.
func TestAdmissionLadder(t *testing.T) {
	const (
		runBody     = `{"scenario":{"network":{"family":"clique","params":{"n":32}}},"reps":4,"seed":1}`
		sweepBody1  = `{"sweep":{"family":"clique","n":[32]},"reps":4,"seed":1}`
		blockerBody = `{"scenario":{"network":{"family":"clique","params":{"n":16}}},"reps":4,"seed":1}`
	)
	canonicalOf := func(body string) json.RawMessage {
		var req SubmitRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		_, canonical, err := engine.CanonicalizeJSON(req.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		return canonical
	}
	subject, blocker := canonicalOf(runBody), canonicalOf(blockerBody)
	key := runKey(subject, 1, 4)
	submitRec := func(id string, canonical json.RawMessage) store.Record {
		payload, err := json.Marshal(submitRecord{ID: id, Canonical: canonical, Reps: 4, Seed: 1, SubmittedAt: testClock()})
		if err != nil {
			t.Fatal(err)
		}
		return store.Record{Type: recSubmit, Payload: payload}
	}

	type origin int
	const (
		submitted origin = iota
		sweepCell
		recoveredJob
		recoveredCell
	)
	type outcome int
	const (
		hit outcome = iota
		coalesced
		enqueued
	)
	originNames := []string{"submit", "sweep cell", "recovered job", "recovered sweep cell"}
	outcomeNames := []string{"cache hit", "coalesced", "enqueued"}

	for o := submitted; o <= recoveredCell; o++ {
		for oc := hit; oc <= enqueued; oc++ {
			t.Run(originNames[o]+"/"+outcomeNames[oc], func(t *testing.T) {
				cacheDir, stateDir := t.TempDir(), t.TempDir()
				if oc == hit {
					disk, err := store.OpenCache(cacheDir, 0)
					if err != nil {
						t.Fatal(err)
					}
					if err := disk.Put(key, []byte(`{"stub":true}`)); err != nil {
						t.Fatal(err)
					}
				}
				recovered := o == recoveredJob || o == recoveredCell
				if recovered {
					// The ledger a crash leaves: the blocker, the leader
					// (coalesced rows) and the subject, in submission order.
					recs := []store.Record{submitRec("j00000001", blocker)}
					if oc == coalesced {
						recs = append(recs, submitRec("j00000002", subject))
					}
					if o == recoveredJob {
						recs = append(recs, submitRec("j00000003", subject))
					} else {
						var req SweepRequest
						if err := json.Unmarshal([]byte(sweepBody1), &req); err != nil {
							t.Fatal(err)
						}
						reqDoc, err := json.Marshal(req)
						if err != nil {
							t.Fatal(err)
						}
						payload, err := json.Marshal(sweepRecord{ID: "s00000001", Request: reqDoc, SubmittedAt: testClock()})
						if err != nil {
							t.Fatal(err)
						}
						recs = append(recs, store.Record{Type: recSweepSubmit, Payload: payload})
					}
					j, err := store.OpenJournal(filepath.Join(stateDir, "service.journal"), func(store.Record) error { return nil })
					if err != nil {
						t.Fatal(err)
					}
					for _, rec := range recs {
						if err := j.Append(rec); err != nil {
							t.Fatal(err)
						}
					}
					if err := j.Close(); err != nil {
						t.Fatal(err)
					}
				}

				gate := &gateBackend{release: make(chan struct{})}
				svc, ts := newTestServer(t, Config{Budget: 1, Backend: gate, CacheDir: cacheDir, StateDir: stateDir})
				var before Metrics
				var id string
				if recovered {
					id = "j00000003"
					if o == recoveredCell {
						id = "s00000001.c000"
					}
				} else {
					if status, body := do(t, http.MethodPost, ts.URL+"/v1/runs", blockerBody); status != http.StatusAccepted {
						t.Fatalf("blocker submit returned %d: %s", status, body)
					}
					if oc == coalesced {
						if status, body := do(t, http.MethodPost, ts.URL+"/v1/runs", runBody); status != http.StatusAccepted {
							t.Fatalf("leader submit returned %d: %s", status, body)
						}
					}
					before = svc.metrics()
					if o == submitted {
						status, body := do(t, http.MethodPost, ts.URL+"/v1/runs", runBody)
						if status != http.StatusOK && status != http.StatusAccepted {
							t.Fatalf("submit returned %d: %s", status, body)
						}
						id = decodeJob(t, body).ID
					} else {
						status, body := do(t, http.MethodPost, ts.URL+"/v1/sweeps", sweepBody1)
						if status != http.StatusOK && status != http.StatusAccepted {
							t.Fatalf("sweep submit returned %d: %s", status, body)
						}
						id = decodeSweep(t, body).ID + ".c000"
					}
				}
				after := svc.metrics()

				view, ok := svc.jobView(id)
				if !ok {
					t.Fatalf("job %s not found", id)
				}
				if view.Key != key {
					t.Fatalf("job %s has key %s, want %s", id, view.Key, key)
				}
				wantState := map[outcome]JobState{hit: StateDone, coalesced: StateQueued, enqueued: StateQueued}[oc]
				if view.State != wantState {
					t.Errorf("state = %s, want %s", view.State, wantState)
				}
				if view.CacheHit != (oc == hit) {
					t.Errorf("cache_hit = %v", view.CacheHit)
				}
				if (view.CoalescedWith != "") != (oc == coalesced) {
					t.Errorf("coalesced_with = %q", view.CoalescedWith)
				}

				// Only live submissions move the client-facing counters.
				var wantDeltas [3]int64 // hits, misses, coalesced
				if !recovered {
					wantDeltas[map[outcome]int{hit: 0, enqueued: 1, coalesced: 2}[oc]] = 1
				}
				gotDeltas := [3]int64{
					after.Cache.Hits - before.Cache.Hits,
					after.Cache.Misses - before.Cache.Misses,
					after.Cache.Coalesced - before.Cache.Coalesced,
				}
				if gotDeltas != wantDeltas {
					t.Errorf("hits/misses/coalesced deltas = %v, want %v", gotDeltas, wantDeltas)
				}

				tv, ok := svc.traceView(id)
				if !ok {
					t.Fatalf("trace of %s not found", id)
				}
				var spans []string
				for _, sp := range tv.Spans {
					switch sp.Name {
					case "submitted", "recovered", "cache-hit", "coalesced":
						spans = append(spans, sp.Name)
					}
				}
				sort.Strings(spans)
				wantSpans := []string{"submitted"}
				if recovered {
					wantSpans = append(wantSpans, "recovered")
				}
				switch oc {
				case hit:
					wantSpans = append(wantSpans, "cache-hit")
				case coalesced:
					wantSpans = append(wantSpans, "coalesced")
				}
				sort.Strings(wantSpans)
				if !reflect.DeepEqual(spans, wantSpans) {
					t.Errorf("admission spans = %v, want %v", spans, wantSpans)
				}

				// A recovered leader re-enqueued under the subject's key is
				// listed once: by the subject when it is enqueued, by the
				// recovered leader when the subject coalesces onto it.
				n := 0
				for _, k := range svc.RecoveredKeys() {
					if k == key {
						n++
					}
				}
				wantKeys := 0
				if recovered && oc != hit {
					wantKeys = 1
				}
				if n != wantKeys {
					t.Errorf("RecoveredKeys lists the subject's key %d times, want %d", n, wantKeys)
				}
			})
		}
	}
}
