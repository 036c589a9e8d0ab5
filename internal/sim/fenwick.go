package sim

// fenwick is a Fenwick (binary indexed) tree over non-negative float64
// weights supporting point updates, prefix sums and sampling an index
// proportionally to its weight, all in O(log n). It is the weighted-sampling
// backbone of the asynchronous simulator.
type fenwick struct {
	tree   []float64
	weight []float64
}

// Set assigns weight w to index i.
func (f *fenwick) Set(i int, w float64) {
	if w < 0 {
		w = 0
	}
	delta := w - f.weight[i]
	if delta == 0 {
		return
	}
	f.weight[i] = w
	for j := i + 1; j < len(f.tree); j += j & (-j) {
		f.tree[j] += delta
	}
}

// Add assigns weight w > 0 to index i, which must currently have weight 0
// (the state right after Reset or Resize). It is Set without the delta
// bookkeeping: the tree nodes receive exactly the same additions in exactly
// the same order, so a Reset-then-Add rebuild is bit-identical to a
// Reset-then-Set rebuild — this is the bulk-load fast path of the
// asynchronous simulator's graph reloads.
func (f *fenwick) Add(i int, w float64) {
	f.weight[i] = w
	for j := i + 1; j < len(f.tree); j += j & (-j) {
		f.tree[j] += w
	}
}

// Total returns the sum of all weights.
func (f *fenwick) Total() float64 {
	return f.prefix(len(f.weight))
}

// prefix returns the sum of weights of indices < i.
func (f *fenwick) prefix(i int) float64 {
	sum := 0.0
	for j := i; j > 0; j -= j & (-j) {
		sum += f.tree[j]
	}
	return sum
}

// Sample returns the smallest index i such that the prefix sum through i
// exceeds target (0 <= target < Total()). Weights accumulated by floating
// point may leave target marginally above the total; in that case the last
// positively weighted index is returned. It returns -1 if all weights are 0.
func (f *fenwick) Sample(target float64) int {
	if target < 0 {
		target = 0
	}
	idx := 0
	bit := 1
	for bit*2 <= len(f.weight) {
		bit *= 2
	}
	remaining := target
	for ; bit > 0; bit /= 2 {
		next := idx + bit
		if next < len(f.tree) && f.tree[next] <= remaining {
			remaining -= f.tree[next]
			idx = next
		}
	}
	// idx is now the count of indices whose cumulative weight is <= target.
	if idx >= len(f.weight) {
		idx = len(f.weight) - 1
	}
	// Skip any zero-weight indices caused by rounding at the boundary.
	for idx >= 0 && f.weight[idx] == 0 {
		idx--
	}
	if idx < 0 {
		for i := len(f.weight) - 1; i >= 0; i-- {
			if f.weight[i] > 0 {
				return i
			}
		}
		return -1
	}
	return idx
}

// Reset sets every weight to zero.
func (f *fenwick) Reset() {
	for i := range f.tree {
		f.tree[i] = 0
	}
	for i := range f.weight {
		f.weight[i] = 0
	}
}

// Resize re-targets the tree to n indices with all weights zero, reusing the
// backing arrays when their capacity suffices; the pooled simulator scratch
// builds every tree this way.
func (f *fenwick) Resize(n int) {
	if cap(f.tree) >= n+1 && cap(f.weight) >= n {
		f.tree = f.tree[:n+1]
		f.weight = f.weight[:n]
		f.Reset()
		return
	}
	f.tree = make([]float64, n+1)
	f.weight = make([]float64, n)
}
