package runner

import (
	"context"

	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dynamicrumor/internal/xrand"
)

// TestMapReduceMatchesMapLocal pins the core contract: for every parallelism
// the reduced sequence is exactly the MapLocal result slice, in repetition
// order.
func TestMapReduceMatchesMapLocal(t *testing.T) {
	const reps = 64
	job := func(rep int, rng *xrand.RNG, _ struct{}) (float64, error) {
		// Consume a rep-dependent number of draws so stream mixups surface.
		sum := 0.0
		for i := 0; i <= rep%7; i++ {
			sum += rng.Float64()
		}
		return sum + float64(rep), nil
	}
	want, err := MapLocal(context.Background(), 1, reps, xrand.New(42), func() struct{} { return struct{}{} }, job)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 3, 8, 16} {
		got := make([]float64, 0, reps)
		err := MapReduce(context.Background(), par, reps, xrand.New(42), func() struct{} { return struct{}{} }, job,
			func(rep int, v float64) error {
				if rep != len(got) {
					return fmt.Errorf("reduce called with rep %d, want %d", rep, len(got))
				}
				got = append(got, v)
				return nil
			})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if len(got) != reps {
			t.Fatalf("parallelism %d: reduced %d values, want %d", par, len(got), reps)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d: rep %d got %v, want %v", par, i, got[i], want[i])
			}
		}
	}
}

// TestMapReduceOrderUnderSkew forces wildly uneven repetition durations and
// checks the reduction order is still strictly the repetition order.
func TestMapReduceOrderUnderSkew(t *testing.T) {
	const reps = 40
	next := 0
	err := MapReduce(context.Background(), 8, reps, xrand.New(1), func() struct{} { return struct{}{} },
		func(rep int, _ *xrand.RNG, _ struct{}) (int, error) {
			if rep%5 == 0 {
				time.Sleep(2 * time.Millisecond)
			}
			return rep, nil
		},
		func(rep int, v int) error {
			if rep != next || v != rep {
				return fmt.Errorf("out of order: rep %d value %d, want %d", rep, v, next)
			}
			next++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if next != reps {
		t.Fatalf("reduced %d reps, want %d", next, reps)
	}
}

// TestMapReduceAdvancesBaseLikeMapLocal pins that both entry points leave the
// base generator in the same state, so a caller can interleave them in a
// longer deterministic experiment.
func TestMapReduceAdvancesBaseLikeMapLocal(t *testing.T) {
	a, b := xrand.New(9), xrand.New(9)
	if _, err := MapLocal(context.Background(), 4, 17, a, func() struct{} { return struct{}{} },
		func(rep int, _ *xrand.RNG, _ struct{}) (int, error) { return rep, nil }); err != nil {
		t.Fatal(err)
	}
	if err := MapReduce(context.Background(), 4, 17, b, func() struct{} { return struct{}{} },
		func(rep int, _ *xrand.RNG, _ struct{}) (int, error) { return rep, nil },
		func(int, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("MapLocal and MapReduce advanced the base generator differently")
	}
}

// TestMapReduceJobError checks the deterministic error contract: the lowest
// failing repetition is reported, every earlier repetition was reduced, and
// no later repetition is.
func TestMapReduceJobError(t *testing.T) {
	boom := errors.New("boom")
	for _, par := range []int{1, 4} {
		reduced := 0
		err := MapReduce(context.Background(), par, 50, xrand.New(3), func() struct{} { return struct{}{} },
			func(rep int, _ *xrand.RNG, _ struct{}) (int, error) {
				if rep == 20 || rep == 35 {
					return 0, boom
				}
				return rep, nil
			},
			func(rep int, v int) error {
				if rep >= 20 {
					return fmt.Errorf("reduced rep %d after the failure point", rep)
				}
				reduced++
				return nil
			})
		var re *RepError
		if !errors.As(err, &re) || re.Rep != 20 || !errors.Is(err, boom) {
			t.Fatalf("parallelism %d: got error %v, want RepError for rep 20", par, err)
		}
		if reduced != 20 {
			t.Fatalf("parallelism %d: reduced %d reps before the failure, want 20", par, reduced)
		}
	}
}

// TestMapReduceReducerError checks that a reducer failure aborts the run and
// is returned unwrapped.
func TestMapReduceReducerError(t *testing.T) {
	stop := errors.New("stop")
	run := func(opts Options) (int64, error) {
		var ran atomic.Int64
		err := MapReduceOpts(context.Background(), opts, 100, xrand.New(4), func() struct{} { return struct{}{} },
			func(rep int, _ *xrand.RNG, _ struct{}) (int, error) {
				ran.Add(1)
				return rep, nil
			},
			func(rep int, v int) error {
				if rep == 10 {
					return stop
				}
				return nil
			})
		return ran.Load(), err
	}
	for _, par := range []int{1, 6} {
		// Per-repetition claiming: workers stop claiming after the abort, so
		// with par in-flight slots at most a handful of extra jobs ran.
		n, err := run(Options{Parallelism: par, ChunkSize: 1})
		if !errors.Is(err, stop) {
			t.Fatalf("parallelism %d, chunk 1: got %v, want the reducer error", par, err)
		}
		if n > 10+int64(par)+int64(par) {
			t.Fatalf("parallelism %d, chunk 1: %d jobs ran after an abort at rep 10", par, n)
		}
		// Automatic chunks: every chunk through rep 10 ran whole, and each
		// other worker may have finished one more chunk before the abort.
		c := int64(ChunkFor(0, 100, par))
		n, err = run(Options{Parallelism: par})
		if !errors.Is(err, stop) {
			t.Fatalf("parallelism %d, chunk %d: got %v, want the reducer error", par, c, err)
		}
		if bound := (11+c-1)/c*c + int64(par-1)*c; n > bound {
			t.Fatalf("parallelism %d, chunk %d: %d jobs ran after an abort at rep 10, want <= %d", par, c, n, bound)
		}
	}
}

// TestMapReduceZeroReps mirrors Map's no-op contract.
func TestMapReduceZeroReps(t *testing.T) {
	err := MapReduce(context.Background(), 4, 0, xrand.New(1), func() struct{} { return struct{}{} },
		func(rep int, _ *xrand.RNG, _ struct{}) (int, error) { return 0, nil },
		func(int, int) error { t.Fatal("reduce called"); return nil })
	if err != nil {
		t.Fatal(err)
	}
}

// TestMapLazyStreamsMatchEagerStreams pins that the lazy claim-order stream
// derivation hands every repetition exactly the stream the eager Streams
// pre-derivation would.
func TestMapLazyStreamsMatchEagerStreams(t *testing.T) {
	const reps = 12
	want := Streams(xrand.New(77), reps)
	wantFirst := make([]uint64, reps)
	for i, s := range want {
		wantFirst[i] = s.Uint64()
	}
	for _, par := range []int{1, 5} {
		got, err := Map(context.Background(), par, reps, xrand.New(77), func(rep int, rng *xrand.RNG) (uint64, error) {
			return rng.Uint64(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != wantFirst[i] {
				t.Fatalf("parallelism %d: rep %d stream differs from eager derivation", par, i)
			}
		}
	}
}
