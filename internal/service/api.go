package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"time"

	"dynamicrumor/internal/engine"
	"dynamicrumor/internal/obs"
)

// maxBodyBytes bounds a submission body; scenarios are small declarative
// documents, so 1 MiB is generous.
const maxBodyBytes = 1 << 20

// SubmitRequest is the body of POST /v1/runs.
type SubmitRequest struct {
	// Scenario is a declarative engine scenario (strict: unknown fields are
	// rejected). Trace recording is stripped — the service reports summary
	// statistics, never per-repetition traces — so spellings differing only
	// in "trace" share a cache entry.
	Scenario json.RawMessage `json:"scenario"`
	// Reps is the repetition count (required, >= 1).
	Reps int `json:"reps"`
	// Seed is the ensemble seed (default 0). Equal scenario+seed+reps are
	// answered from the result cache, byte-identically.
	Seed uint64 `json:"seed"`
}

// FamiliesResponse is the body of GET /v1/scenarios/families.
type FamiliesResponse struct {
	Families []engine.FamilyInfo `json:"families"`
}

// RunsResponse is the body of GET /v1/runs.
type RunsResponse struct {
	Runs []JobView `json:"runs"`
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/runs                submit a run (202; 200 on a cache hit)
//	GET    /v1/runs                list jobs in submission order
//	GET    /v1/runs/{id}           job status + summary when done
//	GET    /v1/runs/{id}/trace     the run's flight-recorder timeline
//	DELETE /v1/runs/{id}           cancel a queued or running job
//	POST   /v1/sweeps              submit a parameter sweep (202; 200 if
//	                               every cell was served from the cache)
//	GET    /v1/sweeps              list sweeps in submission order
//	GET    /v1/sweeps/{id}         sweep status + per-cell aggregate table
//	GET    /v1/sweeps/{id}/events  SSE stream of per-cell summaries
//	DELETE /v1/sweeps/{id}         cancel a sweep's unfinished cells
//	GET    /v1/scenarios/families  the network family registry
//	GET    /healthz                liveness, uptime, subsystem readiness
//	GET    /metrics                job/cache/budget/throughput counters
//
// Every endpoint runs behind the obs.AccessLog middleware: the HTTP latency
// histogram always records, and with Config.LogRequests each request also
// emits one structured log line.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleSweepEvents)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleSweepCancel)
	mux.HandleFunc("GET /v1/scenarios/families", s.handleFamilies)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	al := obs.AccessLog{Latency: s.histHTTP}
	if s.logRequests {
		al.Logger = s.log
	}
	return al.Wrap(mux)
}

// clientKey identifies the submitting client for rate limiting: the remote
// host with the ephemeral port stripped, so one client's connections share
// one bucket.
func clientKey(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// readRequest reads a submission body and strictly decodes it into v. On
// failure it writes the error response — 413 for a body over maxBodyBytes,
// 400 for anything malformed — and returns false.
func readRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	// MaxBytesReader (rather than a bare LimitReader) also closes the
	// connection after an oversized body, so a client cannot keep streaming
	// into a request that is already refused.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return false
	}
	if err := decodeStrict(body, v, "request"); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// decodeStrict decodes one JSON document of the named kind, rejecting
// unknown fields and trailing content — the same fail-loudly stance
// engine.Parse takes: trailing content is a malformed edit, not something
// to drop.
func decodeStrict(data []byte, v any, what string) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode %s: %w", what, err)
	}
	if dec.More() {
		return fmt.Errorf("trailing content after the %s object", what)
	}
	return nil
}

// checkReps bounds a submission's repetition count.
func (s *Service) checkReps(reps int) error {
	if reps < 1 {
		return fmt.Errorf(`"reps" must be >= 1, got %d`, reps)
	}
	if reps > s.maxReps {
		return fmt.Errorf(`"reps" %d exceeds the limit of %d`, reps, s.maxReps)
	}
	return nil
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !readRequest(w, r, &req) {
		return
	}
	if len(req.Scenario) == 0 {
		writeError(w, http.StatusBadRequest, errors.New(`"scenario" is required`))
		return
	}
	if err := s.checkReps(req.Reps); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sc, err := engine.Parse(req.Scenario)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	run, err := canonicalRun(sc, req.Seed, req.Reps, s.defaultStream)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	view, err := s.submit(run, req.Reps, clientKey(r))
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	status := http.StatusAccepted
	if view.CacheHit {
		status = http.StatusOK
	}
	setTraceHeader(w, view)
	writeJSON(w, status, view)
}

// setTraceHeader stamps a run response with the job's trace ID so the access
// log attributes the request and clients can follow the timeline.
func setTraceHeader(w http.ResponseWriter, view JobView) {
	if view.Trace != "" {
		w.Header().Set(obs.TraceHeader, view.Trace)
	}
}

// writeSubmitError maps the admission errors shared by the run and sweep
// submission endpoints to their HTTP statuses.
func writeSubmitError(w http.ResponseWriter, err error) {
	var unavailable *UnavailableError
	var limited *rateLimitedError
	switch {
	case errors.Is(err, errQueueFull):
		writeError(w, http.StatusTooManyRequests, err)
	case errors.As(err, &limited):
		// The client is submitting faster than the configured -rate; tell it
		// when the next token accrues.
		w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds(limited.retryAfter)))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, errShutdown):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.As(err, &unavailable):
		// Fail fast: the backend cannot execute new work right now (e.g. a
		// cluster with zero live workers). Tell the client when to come back.
		if unavailable.RetryAfter > 0 {
			w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds(unavailable.RetryAfter)))
		}
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// retryAfterSeconds renders a wait as whole Retry-After seconds, rounding up
// so a client honoring the header never retries before the wait elapses.
func retryAfterSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, RunsResponse{Runs: s.jobViews()})
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	view, ok := s.jobView(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownJob)
		return
	}
	setTraceHeader(w, view)
	writeJSON(w, http.StatusOK, view)
}

// handleTrace serves the run's flight-recorder timeline: every phase span
// from submission to settlement, including per-shard lease/execute/upload
// spans when the run executed on the cluster backend.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	view, ok := s.traceView(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownJob)
		return
	}
	w.Header().Set(obs.TraceHeader, view.Trace)
	writeJSON(w, http.StatusOK, view)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.cancelJob(r.PathValue("id"))
	switch {
	case errors.Is(err, errUnknownJob):
		writeError(w, http.StatusNotFound, err)
		return
	case errors.Is(err, errAlreadyTerminal):
		writeError(w, http.StatusConflict, fmt.Errorf("%w (state %s)", err, view.State))
		return
	}
	// A queued job is cancelled synchronously (200); a running one settles at
	// its next repetition boundary (202, poll the job until it is terminal —
	// normally "cancelled", but a cancel racing the final repetition can
	// still settle as "done").
	status := http.StatusOK
	if view.State == StateRunning {
		status = http.StatusAccepted
	}
	setTraceHeader(w, view)
	writeJSON(w, status, view)
}

func (s *Service) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !readRequest(w, r, &req) {
		return
	}
	if err := s.checkReps(req.Reps); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cells, err := planSweep(req, s.defaultStream)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	view, err := s.submitSweep(req, cells, clientKey(r))
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	// 200 when the whole grid was served without new work (every cell a
	// cache hit), mirroring the single-run endpoint's cache-hit status.
	status := http.StatusAccepted
	if view.State.Terminal() {
		status = http.StatusOK
	}
	writeJSON(w, status, view)
}

func (s *Service) handleSweepList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, SweepsResponse{Sweeps: s.sweepViews()})
}

func (s *Service) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	view, ok := s.sweepView(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownSweep)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Service) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.cancelSweep(r.PathValue("id"))
	switch {
	case errors.Is(err, errUnknownSweep):
		writeError(w, http.StatusNotFound, err)
		return
	case errors.Is(err, errAlreadyTerminal):
		writeError(w, http.StatusConflict, fmt.Errorf("sweep already finished (state %s)", view.State))
		return
	}
	// Queued cells cancel synchronously; running cells settle at their next
	// repetition boundary, so the sweep may still read "running" here (202,
	// poll or stream events until it is terminal).
	status := http.StatusOK
	if !view.State.Terminal() {
		status = http.StatusAccepted
	}
	writeJSON(w, status, view)
}

// handleSweepEvents serves the sweep's event log as server-sent events: one
// "cell" event per settled cell (its summary byte-identical to the
// standalone run's), then one final "sweep" event with the aggregate view.
// A subscriber connecting mid-sweep replays the log from the start before
// following live settlements, so the stream is complete at any join time;
// the stream ends once the sweep is terminal.
func (s *Service) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	id := r.PathValue("id")
	ch, ok := s.subscribeSweep(id)
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownSweep)
		return
	}
	defer s.unsubscribeSweep(id, ch)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	cursor := 0
	for {
		events, finished, ok := s.sweepEventsAfter(id, cursor)
		if !ok {
			// The sweep was pruned from history while the client streamed.
			return
		}
		for _, ev := range events {
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.id, ev.name, ev.data); err != nil {
				return
			}
		}
		if len(events) > 0 {
			cursor += len(events)
			flusher.Flush()
		}
		if finished {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ch:
		}
	}
}

func (s *Service) handleFamilies(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, FamiliesResponse{Families: engine.FamilyInfos()})
}

// HealthResponse is the body of GET /healthz. Version identifies the build
// (module version + VCS revision), so a mixed-version fleet is diagnosable
// by probing each node's /healthz. Status reads "ok" while every configured
// subsystem is ready and "degraded" otherwise — the endpoint always answers
// 200, because a degraded daemon is still alive; orchestrators that gate on
// readiness should inspect the body.
type HealthResponse struct {
	Status        string  `json:"status"`
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Subsystems reports per-subsystem readiness: the run ledger ("journal"),
	// the persistent result cache ("disk_cache") and the distributed backend
	// ("cluster"), each present only when configured.
	Subsystems map[string]SubsystemHealth `json:"subsystems,omitempty"`
}

// SubsystemHealth is one subsystem's readiness line in /healthz.
type SubsystemHealth struct {
	Ready  bool   `json:"ready"`
	Detail string `json:"detail,omitempty"`
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.health())
}

// handleMetrics negotiates the representation: JSON by default (and whenever
// the client asks for it), Prometheus text exposition when the Accept header
// prefers text/plain or OpenMetrics — which is exactly what a Prometheus
// scraper sends — so the same endpoint serves both humans and collectors.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r.Header.Get("Accept")) {
		s.writePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, s.metrics())
}

// writeJSON renders a response document. Every body ends in a newline so
// curl output is readable.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encode response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// writeError renders {"error": ...} with the status.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
