// Package eventq provides an indexed binary-heap priority queue keyed by
// float64 timestamps. It is the core scheduling structure of the naive
// asynchronous simulator, where each node owns a pending clock-tick event
// whose firing time must be updatable in place.
package eventq

// Queue is a min-heap of (id, time) pairs supporting O(log n) push, pop and
// decrease/increase-key by id. Each id may appear at most once.
// The zero value is an empty queue ready for use.
type Queue struct {
	ids   []int       // heap order
	times []float64   // parallel to ids
	pos   map[int]int // id -> index in ids
}

// New returns an empty queue with capacity for n elements.
func New(n int) *Queue {
	return &Queue{
		ids:   make([]int, 0, n),
		times: make([]float64, 0, n),
		pos:   make(map[int]int, n),
	}
}

// Push inserts an event for id at time t, or updates the existing event's
// time if id is already present.
func (q *Queue) Push(id int, t float64) {
	if q.pos == nil {
		q.pos = make(map[int]int)
	}
	if i, ok := q.pos[id]; ok {
		old := q.times[i]
		q.times[i] = t
		if t < old {
			q.up(i)
		} else {
			q.down(i)
		}
		return
	}
	q.ids = append(q.ids, id)
	q.times = append(q.times, t)
	q.pos[id] = len(q.ids) - 1
	q.up(len(q.ids) - 1)
}

// Pop removes and returns the earliest event. ok is false if the queue is
// empty.
func (q *Queue) Pop() (id int, t float64, ok bool) {
	if len(q.ids) == 0 {
		return 0, 0, false
	}
	id, t = q.ids[0], q.times[0]
	q.swap(0, len(q.ids)-1)
	q.ids = q.ids[:len(q.ids)-1]
	q.times = q.times[:len(q.times)-1]
	delete(q.pos, id)
	if len(q.ids) > 0 {
		q.down(0)
	}
	return id, t, true
}

func (q *Queue) swap(i, j int) {
	q.ids[i], q.ids[j] = q.ids[j], q.ids[i]
	q.times[i], q.times[j] = q.times[j], q.times[i]
	q.pos[q.ids[i]] = i
	q.pos[q.ids[j]] = j
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if q.times[parent] <= q.times[i] {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.ids)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && q.times[left] < q.times[smallest] {
			smallest = left
		}
		if right < n && q.times[right] < q.times[smallest] {
			smallest = right
		}
		if smallest == i {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}
