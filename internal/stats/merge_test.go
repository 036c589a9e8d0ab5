package stats

import (
	"testing"

	"dynamicrumor/internal/xrand"
)

// Buffered returns the number of chunks held ahead of the merge frontier.
func (m *Merger) Buffered() int { return len(m.pending) }

// serialStream folds xs into a fresh Stream with the engine's standard
// quantiles, the reference every merge must match bit for bit.
func serialStream(xs []float64) *Stream {
	s := NewStream(0.5, 0.9)
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

// streamsEqual compares every exported accumulator output exactly — no
// tolerance: the merge contract is bit-identity, not approximation.
func streamsEqual(t *testing.T, label string, got, want *Stream) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: N = %d, want %d", label, got.N(), want.N())
	}
	if got.Mean() != want.Mean() || got.Variance() != want.Variance() ||
		got.Min() != want.Min() || got.Max() != want.Max() {
		t.Fatalf("%s: moments differ: mean %v/%v var %v/%v min %v/%v max %v/%v", label,
			got.Mean(), want.Mean(), got.Variance(), want.Variance(),
			got.Min(), want.Min(), got.Max(), want.Max())
	}
	for i := range want.Quantiles() {
		if got.QuantileEstimate(i) != want.QuantileEstimate(i) {
			t.Fatalf("%s: quantile %d estimate %v, want %v", label, i,
				got.QuantileEstimate(i), want.QuantileEstimate(i))
		}
	}
}

// randomChunks cuts [0, n) into contiguous chunks of random length.
func randomChunks(rng *xrand.RNG, xs []float64) []Chunk {
	var chunks []Chunk
	for start := 0; start < len(xs); {
		size := 1 + rng.Intn(7)
		if start+size > len(xs) {
			size = len(xs) - start
		}
		chunks = append(chunks, Chunk{Start: start, Values: xs[start : start+size]})
		start += size
	}
	return chunks
}

// TestMergerOrderInvariance is the satellite property test: for random
// observation sequences, random chunkings and random arrival orders, the
// merged stream is exactly the serial reduction.
func TestMergerOrderInvariance(t *testing.T) {
	rng := xrand.New(515)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Exp(0.1)
		}
		want := serialStream(xs)

		chunks := randomChunks(rng, xs)
		order := rng.Perm(len(chunks))
		merged := NewStream(0.5, 0.9)
		m := NewMerger(merged)
		for _, ci := range order {
			if err := m.Add(chunks[ci]); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		if m.Next() != n || m.Buffered() != 0 {
			t.Fatalf("trial %d: merge incomplete: next %d (want %d), %d buffered", trial, m.Next(), n, m.Buffered())
		}
		streamsEqual(t, "random order", merged, want)
	}
}

// TestMergerCopiesBufferedChunks pins that an out-of-order chunk is copied:
// the caller recycling its slice must not corrupt the merge. This is the
// contract chunked Monte-Carlo workers rely on when they reuse their value
// buffers.
func TestMergerCopiesBufferedChunks(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	want := serialStream(xs)

	merged := NewStream(0.5, 0.9)
	m := NewMerger(merged)
	buf := []float64{30, 40}
	if err := m.Add(Chunk{Start: 2, Values: buf}); err != nil {
		t.Fatal(err)
	}
	buf[0], buf[1] = -1, -2 // recycle the slice before the chunk is merged
	if err := m.Add(Chunk{Start: 0, Values: []float64{10, 20}}); err != nil {
		t.Fatal(err)
	}
	streamsEqual(t, "recycled buffer", merged, want)
}

func TestMergerRejectsOverlaps(t *testing.T) {
	m := NewMerger(NewStream())
	if err := m.Add(Chunk{Start: 0, Values: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(Chunk{Start: 1, Values: []float64{9}}); err == nil {
		t.Fatal("chunk behind the frontier was accepted")
	}
	if err := m.Add(Chunk{Start: 5, Values: []float64{5, 6}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(Chunk{Start: 6, Values: []float64{9}}); err == nil {
		t.Fatal("chunk overlapping a buffered chunk was accepted")
	}
	if err := m.Add(Chunk{Start: 5, Values: []float64{9, 9}}); err == nil {
		t.Fatal("duplicate buffered chunk was accepted")
	}
	// The gap chunk completes the sequence and unblocks the buffer.
	if err := m.Add(Chunk{Start: 2, Values: []float64{3, 4, 5}}); err != nil {
		t.Fatal(err)
	}
	if m.Next() != 7 || m.Buffered() != 0 {
		t.Fatalf("merge did not drain: next %d, %d buffered", m.Next(), m.Buffered())
	}
}

func TestMergerEmptyChunkIsNoop(t *testing.T) {
	m := NewMerger(NewStream())
	if err := m.Add(Chunk{Start: 3, Values: nil}); err != nil {
		t.Fatal(err)
	}
	if m.Next() != 0 || m.Buffered() != 0 {
		t.Fatalf("empty chunk changed state: next %d, %d buffered", m.Next(), m.Buffered())
	}
}
