// Package runner executes independent Monte-Carlo repetitions across a pool
// of worker goroutines.
//
// Every repetition receives its own deterministic RNG stream, derived from a
// single base generator by splitting serially in repetition order: stream i
// is base.Split(i+1). Because a repetition never touches the base generator —
// only its private stream — the results are bit-identical for any worker
// count and any scheduling order, and identical to what the historical
// serial loops produced. This is the determinism contract documented in
// DESIGN.md: parallelism is a pure throughput knob, never an output knob.
//
// Streams are derived lazily, in claim order, under a lock: stream i is
// seeded from the i-th Uint64 draw of the base generator, without
// materializing O(reps) RNGs.
// Workers receive their stream in a per-worker reusable RNG value, so the
// fan-out itself allocates nothing per repetition.
//
// Claims are batched: a worker claims a chunk of consecutive repetitions per
// lock acquisition (Options.ChunkSize, automatic by default) and, on the
// reduce path, hands the whole chunk to the reducer in one condvar turn.
// Chunking never changes outputs — the claimed set is still a sequential
// prefix and streams are still derived in repetition order — it only divides
// the per-repetition synchronization cost by the chunk size.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"dynamicrumor/internal/xrand"
)

// Job is one Monte-Carlo repetition. It receives the repetition index and a
// private RNG stream derived from the experiment seed; it must not share
// mutable state with other repetitions, and must not retain the rng after
// returning (the runner recycles the RNG value for the worker's next
// repetition).
type Job[T any] func(rep int, rng *xrand.RNG) (T, error)

// Parallelism normalizes a worker-count knob: values <= 0 select
// runtime.GOMAXPROCS(0), everything else is returned unchanged.
func Parallelism(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// Options bundles the runner's execution-policy knobs. The zero value selects
// GOMAXPROCS workers and an automatic chunk size; neither knob ever changes
// outputs — both are pure throughput controls.
type Options struct {
	// Parallelism is the worker goroutine count (<= 0 means GOMAXPROCS).
	Parallelism int
	// ChunkSize is the number of consecutive repetitions a worker claims per
	// lock acquisition and reduces per condvar turn (<= 0 selects an automatic
	// size, see ChunkFor). Larger chunks amortize synchronization; smaller
	// chunks balance load. ChunkSize 1 reproduces the historical per-repetition
	// claiming exactly.
	ChunkSize int
}

// maxAutoChunk caps the automatic chunk size: past this point the remaining
// synchronization cost is negligible and bigger chunks only hurt load balance
// and (on the reduce path) per-worker value buffering.
const maxAutoChunk = 64

// ChunkFor returns the effective chunk size for a run: chunkSize when
// positive, otherwise an automatic size that gives every worker several
// claims for load balance (reps / (2·workers), clamped to [1, 64]; serial
// runs always claim one repetition at a time). Callers that buffer one value
// slot per in-flight repetition (see Reducer) size their buffers with it.
func ChunkFor(chunkSize, reps, parallelism int) int {
	workers := Parallelism(parallelism)
	if workers > reps {
		workers = reps
	}
	return effectiveChunk(chunkSize, reps, workers)
}

func effectiveChunk(chunkSize, reps, workers int) int {
	if chunkSize > 0 {
		return chunkSize
	}
	if workers <= 1 {
		// The serial loops claim per repetition: the lock is uncontended and
		// per-rep claiming keeps cancellation at its historical granularity.
		return 1
	}
	c := reps / (2 * workers)
	if c < 1 {
		c = 1
	}
	if c > maxAutoChunk {
		c = maxAutoChunk
	}
	return c
}

// RepError reports the failure of a single repetition, identifying which one
// failed so that deterministic reruns can reproduce it.
type RepError struct {
	// Rep is the zero-based index of the failed repetition.
	Rep int
	// Err is the underlying failure.
	Err error
}

// Error implements the error interface.
func (e *RepError) Error() string { return fmt.Sprintf("runner: rep %d: %v", e.Rep, e.Err) }

// Unwrap returns the underlying repetition failure.
func (e *RepError) Unwrap() error { return e.Err }

// streamSource hands out (repetition, stream) pairs one at a time. Claims are
// serialized under the mutex in increasing repetition order, so the i-th
// Uint64 drawn from the base generator always seeds stream i, exactly as
// base.Split(i+1) in repetition order would. It stops handing out
// repetitions once aborted or once the run's context is cancelled; because
// claims are sequential, the set of claimed repetitions is always a prefix
// [0, k).
type streamSource struct {
	ctx  context.Context
	mu   sync.Mutex
	base *xrand.RNG
	// first is the global index of the source's first repetition: the source
	// hands out [first, first+reps) with stream labels derived from the global
	// index, so a range executor (MapReduceRangeOpts) produces exactly the
	// streams a full run would give those repetitions. Whole runs use first 0.
	first   int
	next    int
	reps    int
	aborted bool
}

// claim derives the next repetition's stream into dst and returns its index,
// or ok=false when the repetitions are exhausted, the run was aborted, or the
// context was cancelled. Cancellation is only observed here — between
// repetitions — so a claimed repetition always runs to completion and (on the
// reduce path) always takes its reduction turn; see MapReduce.
func (s *streamSource) claim(dst *xrand.RNG) (rep int, ok bool) {
	s.mu.Lock()
	if s.aborted || s.next >= s.reps {
		s.mu.Unlock()
		return 0, false
	}
	if s.ctx.Err() != nil {
		s.aborted = true
		s.mu.Unlock()
		return 0, false
	}
	rep = s.first + s.next
	s.next++
	s.base.SplitInto(uint64(rep)+1, dst)
	s.mu.Unlock()
	return rep, true
}

// claimChunk derives up to len(dst) consecutive repetition streams into dst
// and returns the first claimed index plus the claimed count (count == 0 when
// the repetitions are exhausted, the run was aborted, or the context was
// cancelled). The streams are derived in repetition order under the same lock
// as claim, so chunked and per-repetition claiming produce the identical
// stream-to-repetition mapping — a chunk is just several claims for one lock
// acquisition. Like claim, cancellation is observed only here, so a claimed
// chunk always runs to completion and (on the reduce path) always takes its
// full reduction turn.
func (s *streamSource) claimChunk(dst []xrand.RNG) (start, count int) {
	s.mu.Lock()
	if s.aborted || s.next >= s.reps {
		s.mu.Unlock()
		return 0, 0
	}
	if s.ctx.Err() != nil {
		s.aborted = true
		s.mu.Unlock()
		return 0, 0
	}
	start = s.first + s.next
	count = len(dst)
	if rem := s.reps - s.next; count > rem {
		count = rem
	}
	for j := 0; j < count; j++ {
		s.base.SplitInto(uint64(start+j)+1, &dst[j])
	}
	s.next += count
	s.mu.Unlock()
	return start, count
}

// incomplete reports whether any repetition was never handed out. Read it
// before drain, which advances next to reps.
func (s *streamSource) incomplete() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next < s.reps
}

// cancelErr is the shared cancellation epilogue: it returns ctx.Err() when
// the run was cut short — draining the unclaimed repetitions first so the
// base generator still ends fully advanced — and nil when every repetition
// had been claimed before the cancellation landed (the run finished). The
// incomplete check must precede drain, which advances next to reps.
func (s *streamSource) cancelErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil && s.incomplete() {
		s.drain()
		return err
	}
	return nil
}

// abort stops further claims; in-flight repetitions still complete.
func (s *streamSource) abort() {
	s.mu.Lock()
	s.aborted = true
	s.mu.Unlock()
}

// drain advances the base generator past every unclaimed repetition, so the
// base ends in the same state regardless of how the run terminated.
func (s *streamSource) drain() {
	s.mu.Lock()
	for ; s.next < s.reps; s.next++ {
		s.base.Uint64()
	}
	s.mu.Unlock()
}

// LocalJob is one Monte-Carlo repetition that additionally receives a
// worker-local state L (a scratch buffer pool, a reusable simulator state,
// ...). The state is shared by every repetition the same worker executes but
// never by two concurrent repetitions, so it may be mutated freely; it must
// not influence results — it is a recycling vehicle, not an input.
type LocalJob[T, L any] func(rep int, rng *xrand.RNG, local L) (T, error)

// Map runs fn for every repetition in [0, reps) across a pool of parallelism
// workers (<= 0 selects GOMAXPROCS) and returns the results in repetition
// order.
//
// RNG streams are derived from base as described in the package comment, so
// the output is bit-identical regardless of parallelism. If one or more
// repetitions fail, Map completes the remaining repetitions and returns the
// error of the lowest-indexed failure wrapped in a *RepError — again
// independent of scheduling order.
//
// Cancelling ctx stops the run at the next repetition boundary: in-flight
// repetitions complete, no new ones start, and Map returns ctx.Err() (unless
// every repetition had already been claimed, in which case the run finishes
// normally). Context checks happen only between repetitions, so a run whose
// context is never cancelled pays one atomic load per claim and nothing else.
func Map[T any](ctx context.Context, parallelism, reps int, base *xrand.RNG, fn Job[T]) ([]T, error) {
	return MapLocal(ctx, parallelism, reps, base, func() struct{} { return struct{}{} },
		func(rep int, rng *xrand.RNG, _ struct{}) (T, error) { return fn(rep, rng) })
}

// MapLocal is Map with per-worker local state: newLocal is invoked once per
// worker goroutine (once total in the serial case) and the returned state is
// threaded through every repetition that worker executes. This is how the
// engine gives each worker one reusable sim.Scratch for all of its
// repetitions — the determinism contract is unchanged because the local
// state carries no randomness and no results.
func MapLocal[T, L any](ctx context.Context, parallelism, reps int, base *xrand.RNG, newLocal func() L, fn LocalJob[T, L]) ([]T, error) {
	return MapLocalOpts(ctx, Options{Parallelism: parallelism}, reps, base, newLocal, fn)
}

// MapLocalOpts is MapLocal with full Options control, including the claim
// chunk size. Chunking changes only how often workers touch the claim lock;
// outputs and error selection are identical for every chunk size.
func MapLocalOpts[T, L any](ctx context.Context, opts Options, reps int, base *xrand.RNG, newLocal func() L, fn LocalJob[T, L]) ([]T, error) {
	if reps <= 0 {
		return nil, nil
	}
	out := make([]T, reps)
	src := &streamSource{ctx: ctx, base: base, reps: reps}

	workers := Parallelism(opts.Parallelism)
	if workers > reps {
		workers = reps
	}
	if workers == 1 {
		local := newLocal()
		var rng xrand.RNG
		for {
			i, ok := src.claim(&rng)
			if !ok {
				break
			}
			v, err := fn(i, &rng, local)
			if err != nil {
				src.drain()
				return nil, &RepError{Rep: i, Err: err}
			}
			out[i] = v
		}
		if err := src.cancelErr(ctx); err != nil {
			return nil, err
		}
		return out, nil
	}

	chunk := effectiveChunk(opts.ChunkSize, reps, workers)
	errs := make([]error, reps)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			local := newLocal()
			rngs := make([]xrand.RNG, chunk)
			for {
				start, count := src.claimChunk(rngs)
				if count == 0 {
					return
				}
				for j := 0; j < count; j++ {
					i := start + j
					v, err := fn(i, &rngs[j], local)
					if err != nil {
						errs[i] = err
						continue
					}
					out[i] = v
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			// A concurrent cancellation may have stopped the claims early;
			// drain so the base generator ends fully advanced regardless.
			src.drain()
			return nil, &RepError{Rep: i, Err: err}
		}
	}
	if err := src.cancelErr(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// Reducer consumes one repetition's value. MapReduce calls it in strict
// repetition order (rep 0, 1, 2, ...), exactly once per repetition, and never
// concurrently, so a reducer needs no locking and may fold values into plain
// accumulators. The value (and anything it points to) is only guaranteed
// valid for the duration of the call: workers recycle their result storage as
// soon as their chunk has been reduced. A job that hands out pointers to
// worker-local storage must therefore keep one distinct value slot per
// repetition of a chunk — ChunkFor reports how many that is — because a
// worker computes its whole chunk before any of it is reduced.
type Reducer[T any] func(rep int, v T) error

// MapReduce runs fn for every repetition like MapLocal but streams the
// results into reduce instead of materializing them: memory stays O(workers)
// regardless of reps. The per-repetition RNG streams are identical to
// MapLocal's, so a job produces bit-identical values under either entry
// point.
//
// Ordering: workers simulate concurrently, but each takes a turn — in
// repetition order — to hand its claimed chunk to reduce. Within a turn the
// chunk's values are reduced in repetition order, so the reducer still sees
// exactly the sequence rep 0, 1, 2, ... A worker claims its next chunk only
// after its previous chunk has been reduced, which is what makes recycled
// result storage safe and bounds in-flight values by workers × chunk size.
//
// Errors: the first failure in repetition order (from the job or the
// reducer) aborts the run — no later repetition is reduced, workers stop
// claiming new repetitions, and the failure is returned wrapped in a
// *RepError (reducer errors are returned unwrapped). Which error is returned
// is deterministic regardless of chunking: turns execute in repetition order,
// a worker stops computing its chunk at its first failure, and every
// repetition before the failure was reduced.
//
// Cancelling ctx stops the run at the next chunk boundary and returns
// ctx.Err() once every in-flight repetition has been reduced. Cancellation
// can never deadlock the turn-taking: it is observed only in claimChunk,
// before a repetition exists, so every claimed chunk runs to completion and
// takes its full reduction turn — the claimed set is a prefix [0, k), each
// claimed chunk advances the turn by exactly its claimed count, and the turn
// therefore reaches k and releases every waiting worker. A worker must not
// bail out between claimChunk and takeTurn for exactly this reason: an
// abandoned claimed chunk would strand every later chunk's worker in
// cond.Wait.
func MapReduce[T, L any](ctx context.Context, parallelism, reps int, base *xrand.RNG, newLocal func() L, fn LocalJob[T, L], reduce Reducer[T]) error {
	return MapReduceOpts(ctx, Options{Parallelism: parallelism}, reps, base, newLocal, fn, reduce)
}

// MapReduceOpts is MapReduce with full Options control, including the claim
// chunk size. Chunk size 1 reproduces per-repetition claiming and turn-taking
// exactly; larger chunks amortize both the claim lock and the condvar
// handoff without changing what the reducer observes.
func MapReduceOpts[T, L any](ctx context.Context, opts Options, reps int, base *xrand.RNG, newLocal func() L, fn LocalJob[T, L], reduce Reducer[T]) error {
	return mapReduceRange(ctx, opts, 0, reps, base, newLocal, fn, reduce)
}

// MapReduceRangeOpts executes the repetition range [start, start+count) of a
// larger deterministic sequence: fn and reduce receive global repetition
// indices, and every repetition gets exactly the RNG stream it would have
// received in a full MapReduce over the whole sequence — which is what lets a
// distributed run shard [0, reps) into ranges, execute them on independent
// processes from nothing but (seed, start, count), and merge the partial
// results into a bit-identical whole (see internal/cluster).
//
// base must be a fresh generator seeded with the run seed; the call advances
// it past the start earlier repetitions first (one Uint64 draw each, the
// exact prefix a full run would have consumed) and then claims the range, so
// base ends advanced start+count draws. Within the range the semantics are
// those of MapReduceOpts: strict rep-order reduction, deterministic lowest-rep errors,
// cancellation at chunk boundaries.
func MapReduceRangeOpts[T, L any](ctx context.Context, opts Options, start, count int, base *xrand.RNG, newLocal func() L, fn LocalJob[T, L], reduce Reducer[T]) error {
	if start < 0 {
		return fmt.Errorf("runner: negative range start %d", start)
	}
	for i := 0; i < start; i++ {
		base.Uint64()
	}
	return mapReduceRange(ctx, opts, start, count, base, newLocal, fn, reduce)
}

// mapReduceRange is the shared MapReduce core: repetitions [first,
// first+count) with globally-labeled streams, base already positioned at the
// range's first draw.
func mapReduceRange[T, L any](ctx context.Context, opts Options, first, count int, base *xrand.RNG, newLocal func() L, fn LocalJob[T, L], reduce Reducer[T]) error {
	reps := count
	if reps <= 0 {
		return nil
	}
	src := &streamSource{ctx: ctx, base: base, first: first, reps: reps}

	workers := Parallelism(opts.Parallelism)
	if workers > reps {
		workers = reps
	}
	if workers == 1 {
		local := newLocal()
		var rng xrand.RNG
		for {
			i, ok := src.claim(&rng)
			if !ok {
				return src.cancelErr(ctx)
			}
			v, err := fn(i, &rng, local)
			if err != nil {
				src.drain()
				return &RepError{Rep: i, Err: err}
			}
			if err := reduce(i, v); err != nil {
				src.drain()
				return err
			}
		}
	}

	chunk := effectiveChunk(opts.ChunkSize, reps, workers)

	// turn serializes the reducer: a worker holding the chunk starting at
	// repetition i waits until every repetition < i has been reduced, reduces
	// its whole chunk, then advances the turn by the chunk's claimed count.
	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		turn     = first
		firstErr error
	)
	// takeTurn reduces one claimed chunk [start, start+count): vals[0..n) are
	// the values of the chunk's first n repetitions and jobErr, when non-nil,
	// is the failure of repetition start+n (the worker stops computing a chunk
	// at its first failure, so nothing after it exists). The turn advances by
	// the full claimed count even when the chunk failed or was skipped after
	// an abort — every claimed repetition must advance the turn exactly once
	// or later chunks would wait forever.
	takeTurn := func(start, count int, vals []T, n int, jobErr error) {
		mu.Lock()
		for turn != start {
			cond.Wait()
		}
		if firstErr == nil {
			for j := 0; j < n; j++ {
				if err := reduce(start+j, vals[j]); err != nil {
					firstErr = err
					break
				}
			}
			if firstErr == nil && jobErr != nil {
				firstErr = &RepError{Rep: start + n, Err: jobErr}
			}
			if firstErr != nil {
				src.abort()
			}
		}
		turn += count
		cond.Broadcast()
		mu.Unlock()
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			local := newLocal()
			rngs := make([]xrand.RNG, chunk)
			vals := make([]T, chunk)
			for {
				start, count := src.claimChunk(rngs)
				if count == 0 {
					return
				}
				n := 0
				var jobErr error
				for ; n < count; n++ {
					v, err := fn(start+n, &rngs[n], local)
					if err != nil {
						jobErr = err
						break
					}
					vals[n] = v
				}
				takeTurn(start, count, vals, n, jobErr)
			}
		}()
	}
	wg.Wait()
	if firstErr == nil {
		firstErr = src.cancelErr(ctx)
	}
	src.drain()
	return firstErr
}
