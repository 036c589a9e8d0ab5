package runner

import (
	"context"

	"errors"
	"sync/atomic"
	"testing"

	"dynamicrumor/internal/xrand"
)

// Streams is the eager reference for the runner's lazy stream derivation: it
// derives reps private RNG streams from base by splitting serially in
// repetition order, so stream i is base.Split(i+1).
func Streams(base *xrand.RNG, reps int) []*xrand.RNG {
	streams := make([]*xrand.RNG, reps)
	for i := range streams {
		streams[i] = base.Split(uint64(i) + 1)
	}
	return streams
}

// drain consumes a deterministic amount of randomness from a stream and
// returns a digest of it, standing in for a simulation repetition.
func drain(rep int, rng *xrand.RNG) (uint64, error) {
	var h uint64
	for i := 0; i < 100+rep%7; i++ {
		h = h*1099511628211 + rng.Uint64()
	}
	return h, nil
}

func TestMapMatchesSerialLoop(t *testing.T) {
	const reps = 33
	// The historical serial pattern: split the base RNG inside the loop.
	base := xrand.New(42)
	want := make([]uint64, reps)
	for rep := 0; rep < reps; rep++ {
		v, err := drain(rep, base.Split(uint64(rep)+1))
		if err != nil {
			t.Fatal(err)
		}
		want[rep] = v
	}
	for _, p := range []int{0, 1, 2, 3, 8, 64} {
		got, err := Map(context.Background(), p, reps, xrand.New(42), drain)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d: rep %d = %x, want %x (serial)", p, i, got[i], want[i])
			}
		}
	}
}

func TestMapZeroReps(t *testing.T) {
	out, err := Map(context.Background(), 4, 0, xrand.New(1), drain)
	if err != nil || out != nil {
		t.Fatalf("Map with 0 reps = (%v, %v), want (nil, nil)", out, err)
	}
}

func TestMapReturnsLowestIndexedError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, p := range []int{1, 4} {
		_, err := Map(context.Background(), p, 16, xrand.New(9), func(rep int, _ *xrand.RNG) (int, error) {
			if rep%5 == 2 { // reps 2, 7, 12 fail
				return 0, sentinel
			}
			return rep, nil
		})
		var re *RepError
		if !errors.As(err, &re) {
			t.Fatalf("parallelism %d: error %v is not a *RepError", p, err)
		}
		if !errors.Is(err, sentinel) {
			t.Fatalf("parallelism %d: error %v does not unwrap to the sentinel", p, err)
		}
		if p == 4 && re.Rep != 2 {
			t.Fatalf("parallelism %d: reported rep %d, want lowest failed rep 2", p, re.Rep)
		}
		if p == 1 && re.Rep != 2 {
			t.Fatalf("serial: reported rep %d, want 2", re.Rep)
		}
	}
}

func TestMapRunsEveryRepExactlyOnce(t *testing.T) {
	const reps = 200
	var calls [reps]atomic.Int32
	out, err := Map(context.Background(), 8, reps, xrand.New(3), func(rep int, _ *xrand.RNG) (int, error) {
		calls[rep].Add(1)
		return rep * rep, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("rep %d executed %d times", i, n)
		}
		if out[i] != i*i {
			t.Fatalf("out[%d] = %d, results out of repetition order", i, out[i])
		}
	}
}

func TestParallelismNormalization(t *testing.T) {
	if Parallelism(0) < 1 || Parallelism(-3) < 1 {
		t.Fatal("non-positive parallelism must normalize to at least 1 worker")
	}
	if Parallelism(5) != 5 {
		t.Fatal("positive parallelism must pass through")
	}
}

func TestStreamsMatchSerialSplits(t *testing.T) {
	a := xrand.New(77)
	b := xrand.New(77)
	streams := Streams(a, 5)
	for i := 0; i < 5; i++ {
		want := b.Split(uint64(i) + 1).Uint64()
		if got := streams[i].Uint64(); got != want {
			t.Fatalf("stream %d first draw %x, want %x", i, got, want)
		}
	}
}
