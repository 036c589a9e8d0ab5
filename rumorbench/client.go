package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// The load generator's HTTP side. One client, capped at the workload's
// connection count, carries every request the daemon sees.

func newLoadClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     5 * time.Minute,
		},
	}
}

// submission is one POST /v1/runs and what came of it.
type submission struct {
	kind   string // "new", "repeat", "leader", "dup" (admission) or "job"
	body   []byte
	reps   int
	origin int // index of the submission a repeat or dup re-sends; -1 otherwise
	due    time.Time
	sent   time.Time
	recv   time.Time
	status int
	id     string
	err    error
	// settledSeen is when a closed-loop client saw the job settle.
	settledSeen time.Time
	// ready is closed once the response is in (the admission generator's
	// status and trace requests wait on it).
	ready chan struct{}
}

// getReq is one status or trace GET of the admission mix.
type getReq struct {
	path   string
	target int // submission index whose job it reads
	due    time.Time
	sent   time.Time
	recv   time.Time
	status int
	err    error
}

// sweepStep is one native sweep: its POST, SSE stream and cells.
type sweepStep struct {
	kind     string
	body     []byte
	cells    int // planned cells
	networks int // distinct shared networks the plan implies (0: not deterministic)
	reps     int
	sent     time.Time
	recv     time.Time // POST response
	end      time.Time // terminal SSE event
	status   int
	id       string
	events   []sseEvent
	terminal sweepView
	err      error
}

func (s *submission) do(c *http.Client, base string) {
	s.sent = time.Now()
	resp, err := c.Post(base+"/v1/runs", "application/json", bytes.NewReader(s.body))
	if err != nil {
		s.recv, s.err = time.Now(), err
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.recv = time.Now()
	s.status = resp.StatusCode
	if err != nil {
		s.err = err
		return
	}
	if s.status != http.StatusOK && s.status != http.StatusAccepted {
		s.err = fmt.Errorf("POST /v1/runs: %d %s", s.status, bytes.TrimSpace(data))
		return
	}
	var v jobView
	if err := json.Unmarshal(data, &v); err != nil {
		s.err = err
		return
	}
	s.id = v.ID
}

func (g *getReq) do(c *http.Client, base string) {
	g.sent = time.Now()
	resp, err := c.Get(base + g.path)
	if err != nil {
		g.recv, g.err = time.Now(), err
		return
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	g.recv = time.Now()
	g.status = resp.StatusCode
	if err == nil && g.status != http.StatusOK {
		err = fmt.Errorf("GET %s: %d", g.path, g.status)
	}
	g.err = err
}

// statusPoll is how often a closed-loop client asks whether its job has
// settled. The daemon offers no completion push for runs, and progress
// arrives in chunks, so nothing predicts the finish better than asking; at
// 2 ms the client notices a settlement about a millisecond late while the
// status requests cost the daemon about 1% of one CPU.
const statusPoll = 2 * time.Millisecond

// waitJob polls a job until it is terminal.
func waitJob(c *http.Client, base, id string) (jobView, error) {
	deadline := time.Now().Add(150 * time.Second)
	for {
		var v jobView
		if err := getJSON(c, base+"/v1/runs/"+id, &v); err != nil {
			return v, err
		}
		if v.terminal() {
			return v, nil
		}
		if time.Now().After(deadline) {
			return v, fmt.Errorf("job %s not settled after 150s", id)
		}
		time.Sleep(statusPoll)
	}
}

// do posts the sweep and follows its event stream to the terminal event.
func (s *sweepStep) do(c *http.Client, base string) {
	s.sent = time.Now()
	resp, err := c.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(s.body))
	if err != nil {
		s.recv, s.err = time.Now(), err
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.recv = time.Now()
	s.status = resp.StatusCode
	if err != nil {
		s.err = err
		return
	}
	if s.status != http.StatusOK && s.status != http.StatusAccepted {
		s.err = fmt.Errorf("POST /v1/sweeps: %d %s", s.status, bytes.TrimSpace(data))
		return
	}
	var v sweepView
	if err := json.Unmarshal(data, &v); err != nil {
		s.err = err
		return
	}
	s.id = v.ID
	resp, err = c.Get(base + "/v1/sweeps/" + s.id + "/events")
	if err != nil {
		s.err = err
		return
	}
	defer resp.Body.Close()
	err = readSSE(resp.Body, func(ev sseEvent) bool {
		if ev.Event == "sweep" {
			s.end = ev.At
			s.err = json.Unmarshal(ev.Data, &s.terminal)
			return false
		}
		s.events = append(s.events, ev)
		return true
	})
	if s.err == nil && err != nil {
		s.err = err
	}
	if s.err == nil && s.end.IsZero() {
		s.err = fmt.Errorf("sweep %s: stream ended without a terminal event", s.id)
	}
}
