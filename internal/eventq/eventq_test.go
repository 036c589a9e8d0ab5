package eventq

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"dynamicrumor/internal/xrand"
)

// Len returns the number of queued events.
func (q *Queue) Len() int { return len(q.ids) }

func TestEmptyQueue(t *testing.T) {
	var q Queue
	if q.Len() != 0 {
		t.Fatal("zero-value queue not empty")
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue returned ok")
	}
}

func TestPushPopOrdered(t *testing.T) {
	q := New(8)
	times := []float64{5, 1, 3, 2, 4}
	for i, tm := range times {
		q.Push(i, tm)
	}
	prev := math.Inf(-1)
	for q.Len() > 0 {
		_, tm, ok := q.Pop()
		if !ok {
			t.Fatal("Pop failed on non-empty queue")
		}
		if tm < prev {
			t.Fatalf("Pop out of order: %v after %v", tm, prev)
		}
		prev = tm
	}
}

func TestPushUpdatesExisting(t *testing.T) {
	q := New(4)
	q.Push(1, 10)
	q.Push(2, 5)
	q.Push(1, 1) // decrease key
	id, tm, _ := q.Pop()
	if id != 1 || tm != 1 {
		t.Fatalf("Pop = (%d,%v), want (1,1)", id, tm)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
}

func TestPushIncreaseKey(t *testing.T) {
	q := New(4)
	q.Push(1, 1)
	q.Push(2, 5)
	q.Push(1, 10) // increase key
	id, tm, _ := q.Pop()
	if id != 2 || tm != 5 {
		t.Fatalf("Pop = (%d,%v), want (2,5)", id, tm)
	}
}

func TestHeapPropertyRandomized(t *testing.T) {
	rng := xrand.New(99)
	q := New(128)
	inserted := map[int]float64{}
	for op := 0; op < 5000; op++ {
		switch rng.Intn(2) {
		case 0: // push, or update an id already queued
			id := rng.Intn(200)
			tm := rng.Float64() * 100
			q.Push(id, tm)
			inserted[id] = tm
		case 1: // pop
			if len(inserted) == 0 {
				continue
			}
			id, tm, ok := q.Pop()
			if !ok {
				t.Fatal("Pop failed while map non-empty")
			}
			// Must be the minimum over the tracked map.
			minID, minT := -1, math.Inf(1)
			for k, v := range inserted {
				if v < minT || (v == minT && k == id) {
					minID, minT = k, v
				}
			}
			if tm != minT {
				t.Fatalf("Pop time %v, want min %v (id %d vs %d)", tm, minT, id, minID)
			}
			delete(inserted, id)
		}
		if q.Len() != len(inserted) {
			t.Fatalf("length mismatch: queue %d, map %d", q.Len(), len(inserted))
		}
	}
}

func TestPopSortsArbitraryInput(t *testing.T) {
	if err := quick.Check(func(raw []float64) bool {
		times := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) {
				times = append(times, x)
			}
		}
		q := New(len(times))
		for i, tm := range times {
			q.Push(i, tm)
		}
		var popped []float64
		for q.Len() > 0 {
			_, tm, _ := q.Pop()
			popped = append(popped, tm)
		}
		if len(popped) != len(times) {
			return false
		}
		want := append([]float64(nil), times...)
		sort.Float64s(want)
		for i := range want {
			if popped[i] != want[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}
