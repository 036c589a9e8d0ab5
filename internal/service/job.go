// Package service is the long-lived simulation service behind cmd/rumord: a
// job model and bounded FIFO scheduler on top of the batch engine, a
// scenario-hash result cache, and the JSON HTTP API that exposes them.
//
// A job is one ensemble run: a declarative engine.Scenario plus a repetition
// count and seed. Jobs move through a small state machine
//
//	queued → running → done | failed | cancelled
//	queued → cancelled                 (cancelled before dispatch)
//
// and never leave a terminal state. Because the engine is deterministic —
// equal (scenario, seed, reps) produce bit-identical ensembles at any
// parallelism — a completed run is fully described by its inputs, which is
// what makes the result cache sound: the cache key is a content hash of the
// canonical scenario encoding (see engine.Canonical) plus seed and reps, and
// a hit replays the stored summary bytes verbatim.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"sync/atomic"
	"time"

	"dynamicrumor/internal/engine"
	"dynamicrumor/internal/obs"
	"dynamicrumor/internal/stats"
)

// JobState names one vertex of the job lifecycle state machine.
type JobState string

// The job states. Done, Failed and Cancelled are terminal.
const (
	// StateQueued: accepted, waiting for worker budget in FIFO order.
	StateQueued JobState = "queued"
	// StateRunning: repetitions are executing on granted workers.
	StateRunning JobState = "running"
	// StateDone: all repetitions reduced; Summary holds the result.
	StateDone JobState = "done"
	// StateFailed: a repetition or the reducer returned an error.
	StateFailed JobState = "failed"
	// StateCancelled: cancelled by DELETE or by service shutdown.
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// job is the service-internal job record. All fields are guarded by the
// service mutex except repsDone, which the reducer updates without the lock.
type job struct {
	id        string
	state     JobState
	scenario  engine.Scenario
	canonical []byte
	key       string
	reps      int
	seed      uint64
	seq       int
	cacheHit  bool
	// journaled marks a job recorded in the durable run ledger; its terminal
	// transition must be journalled too, or a restart re-runs it.
	journaled bool

	// sweep/cellLabel/compile mark a sweep cell: the owning sweep, the
	// planner's grid-point label, and the sweep-wide compile set the backend
	// routes scenario compilation through so deterministic networks are
	// shared across cells. Cells are not journalled individually — the sweep
	// record re-plans them — and are pruned with their sweep.
	sweep     *sweep
	cellLabel string
	compile   *engine.CompileSet

	// trace is the job's flight-recorder timeline (see internal/obs): phase
	// spans from submission to settlement, plus per-shard spans in cluster
	// mode. It lives and is pruned with the job record. Never nil after
	// newJobLocked.
	trace *obs.Trace

	workers         int
	repsDone        atomic.Int64
	cancelRequested bool
	cancel          context.CancelFunc

	// leader/followers implement in-flight coalescing: a submission whose key
	// matches a queued or running job becomes a follower of that leader and
	// settles together with it, never executing its own repetitions.
	leader    *job
	followers []*job

	submitted time.Time
	started   time.Time
	finished  time.Time

	summary json.RawMessage
	errMsg  string
}

// runKey is the cache key of one ensemble run: a SHA-256 over the canonical
// scenario bytes, the seed and the repetition count. Two submissions collide
// exactly when the engine would produce bit-identical ensembles for them.
func runKey(canonical []byte, seed uint64, reps int) string {
	h := sha256.New()
	h.Write(canonical)
	var tail [17]byte
	binary.LittleEndian.PutUint64(tail[1:9], seed)
	binary.LittleEndian.PutUint64(tail[9:17], uint64(reps))
	h.Write(tail[:])
	return hex.EncodeToString(h.Sum(nil))
}

// runSpec is one validated run as admission sees it: the scenario, its
// canonical encoding, the seed and the cache key. Sweep cells also carry the
// planner's grid-point label.
type runSpec struct {
	label     string
	sc        engine.Scenario
	canonical []byte
	seed      uint64
	key       string
}

// canonicalRun prepares a scenario the way every submission path must, so a
// sweep cell and the equivalent standalone run share one cache key: trace
// recording is stripped (the service reports summaries, never traces), and
// the default stream discipline is applied to async scenarios that do not
// pin one, before canonicalization, so the key reflects the discipline that
// actually runs. The returned spec carries the prepared scenario even when
// canonicalization fails, so callers can name it in the error.
func canonicalRun(sc engine.Scenario, seed uint64, reps, defaultStream int) (runSpec, error) {
	sc.Trace = false
	if defaultStream != 0 && sc.Stream == 0 && sc.Protocol.Normalize() == engine.ProtocolAsync {
		sc.Stream = defaultStream
	}
	r := runSpec{sc: sc, seed: seed}
	canonical, err := engine.Canonical(sc)
	if err != nil {
		return r, err
	}
	r.canonical, r.key = canonical, runKey(canonical, seed, reps)
	return r, nil
}

// RunSummary is the result document of a completed job, kept deliberately
// small and deterministic: marshalling it with encoding/json yields identical
// bytes for identical runs, so summaries can be cached and replayed verbatim.
type RunSummary struct {
	// Key is the run's cache key (canonical scenario + seed + reps hash).
	Key string `json:"key"`
	// Reps and Seed echo the run inputs.
	Reps int    `json:"reps"`
	Seed uint64 `json:"seed"`
	// Completed counts repetitions that informed every vertex in time.
	Completed int `json:"completed"`
	// CompletionRate is Completed / Reps.
	CompletionRate float64 `json:"completion_rate"`
	// SpreadTime summarizes the per-repetition spread times: exact
	// mean/std/min/max plus P² median and 0.9-quantile estimates.
	SpreadTime stats.StreamSummary `json:"spread_time"`
}

// buildSummary renders the deterministic summary bytes of a finished run.
func buildSummary(key string, reps int, seed uint64, completed int, stream *stats.Stream) (json.RawMessage, error) {
	sum := RunSummary{
		Key:            key,
		Reps:           reps,
		Seed:           seed,
		Completed:      completed,
		CompletionRate: float64(completed) / float64(reps),
		SpreadTime:     stream.Summary(),
	}
	return json.Marshal(sum)
}

// JobView is the API representation of a job.
type JobView struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Key identifies the run for caching; equal keys mean equal results.
	Key string `json:"key"`
	// Scenario is the canonical encoding of the submitted scenario.
	Scenario json.RawMessage `json:"scenario"`
	Reps     int             `json:"reps"`
	Seed     uint64          `json:"seed"`
	// CacheHit marks a job answered from the result cache without running.
	CacheHit bool `json:"cache_hit,omitempty"`
	// CoalescedWith names the in-flight job this submission was deduplicated
	// onto; the job settles together with it.
	CoalescedWith string `json:"coalesced_with,omitempty"`
	// CancelRequested marks a running job whose cancellation is in flight.
	CancelRequested bool `json:"cancel_requested,omitempty"`
	// Workers is the worker-budget share granted to the running job.
	Workers int `json:"workers,omitempty"`
	// Sweep and Cell identify a sweep cell: the owning sweep's ID and the
	// planner's grid-point label. Absent on plain submissions.
	Sweep string `json:"sweep,omitempty"`
	Cell  string `json:"cell,omitempty"`
	// Trace is the run's flight-recorder trace ID; GET /v1/runs/{id}/trace
	// serves the timeline.
	Trace string `json:"trace,omitempty"`
	// RepsDone counts reduced repetitions (= Reps once done).
	RepsDone    int64  `json:"reps_done"`
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
	Error       string `json:"error,omitempty"`
	// Summary holds the result document once the job is done.
	Summary json.RawMessage `json:"summary,omitempty"`
}

// view renders the job for the API. Callers hold the service mutex.
func (j *job) view() JobView {
	v := JobView{
		ID:              j.id,
		State:           j.state,
		Key:             j.key,
		Scenario:        j.canonical,
		Reps:            j.reps,
		Seed:            j.seed,
		CacheHit:        j.cacheHit,
		CoalescedWith:   coalescedID(j),
		CancelRequested: j.cancelRequested && j.state == StateRunning,
		Cell:            j.cellLabel,
		Trace:           j.trace.ID(),
		RepsDone:        j.repsDone.Load(),
		SubmittedAt:     rfc3339(j.submitted),
		StartedAt:       rfc3339(j.started),
		FinishedAt:      rfc3339(j.finished),
		Error:           j.errMsg,
		Summary:         j.summary,
	}
	if j.sweep != nil {
		v.Sweep = j.sweep.id
	}
	if j.state == StateRunning {
		v.Workers = j.workers
	}
	if j.state == StateDone {
		// A cache hit never executed its repetitions; report the logical
		// count so "done" always reads as reps_done == reps.
		v.RepsDone = int64(j.reps)
	}
	return v
}

// coalescedID names a follower's leader for the API; empty otherwise.
func coalescedID(j *job) string {
	if j.leader != nil {
		return j.leader.id
	}
	return ""
}

// rfc3339 formats a timestamp for the API; the zero time renders empty (and
// is dropped by omitempty).
func rfc3339(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}
