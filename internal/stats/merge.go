package stats

import "fmt"

// Chunk is a contiguous run of observations from a larger sequence:
// Values[j] is the observation of index Start+j. It is the unit in which
// distributed or chunked-parallel producers ship partial results to a
// merging consumer (see Merger).
type Chunk struct {
	Start  int
	Values []float64
}

// Merger folds chunks of an observation sequence into a Stream in index
// order, whatever order the chunks arrive in. The merge is exact: the target
// stream receives the observations one by one, in index order, so the final
// accumulator state is bit-identical to a serial Add loop over the full
// sequence. This replay design is deliberate — Welford and P² states cannot
// be merged exactly from summaries alone, and the engine's deterministic
// contract ("parallelism is never an output knob") extends to distributed
// reduction only if merging is exact.
//
// Chunks that arrive ahead of the merge frontier are buffered (copied — the
// caller may recycle the slice); a chunk behind or overlapping the frontier,
// or overlapping a buffered chunk, is rejected. The zero Merger is not
// usable; construct with NewMerger.
type Merger struct {
	stream  *Stream
	next    int
	pending map[int][]float64 // buffered chunks keyed by start index
}

// NewMerger returns a merger folding into s, awaiting index 0.
func NewMerger(s *Stream) *Merger {
	return &Merger{stream: s, pending: make(map[int][]float64)}
}

// Next returns the first index the merger is still waiting for: every
// observation below it has been folded into the stream.
func (m *Merger) Next() int { return m.next }

// Add accepts one chunk, folds it (and any buffered successors it unblocks)
// into the stream if it sits exactly at the frontier, and buffers it
// otherwise. Duplicate, overlapping or behind-the-frontier chunks are
// rejected with an error and change nothing.
func (m *Merger) Add(c Chunk) error {
	if len(c.Values) == 0 {
		return nil
	}
	if c.Start < m.next {
		return fmt.Errorf("stats: chunk [%d,%d) overlaps already-merged prefix [0,%d)", c.Start, c.Start+len(c.Values), m.next)
	}
	for start, vals := range m.pending {
		if c.Start < start+len(vals) && start < c.Start+len(c.Values) {
			return fmt.Errorf("stats: chunk [%d,%d) overlaps buffered chunk [%d,%d)", c.Start, c.Start+len(c.Values), start, start+len(vals))
		}
	}
	if c.Start == m.next {
		for _, v := range c.Values {
			m.stream.Add(v)
		}
		m.next += len(c.Values)
		m.drain()
		return nil
	}
	buf := make([]float64, len(c.Values))
	copy(buf, c.Values)
	m.pending[c.Start] = buf
	return nil
}

// drain folds every buffered chunk that now sits at the frontier.
func (m *Merger) drain() {
	for {
		vals, ok := m.pending[m.next]
		if !ok {
			return
		}
		delete(m.pending, m.next)
		for _, v := range vals {
			m.stream.Add(v)
		}
		m.next += len(vals)
	}
}
