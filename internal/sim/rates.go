package sim

import (
	"math"

	"dynamicrumor/internal/graph"
)

// contactRates is the informative-rate formula both asynchronous kernels
// share: a vertex of degree d with c neighbors across the cut contributes
// rate·c/d, or +0 when c is zero or the mode disables its side of the
// transfer (push for an informed vertex, pull for an uninformed one).
//
// The value is the straightforward expression's exactly. The mask turns the
// disabled and c = 0 cases into +0 by clearing bits, which is the +0 the
// branchy formula assigns, so the hot loops need no branch on a vertex's
// informed status. On a d-regular exposure the quotients come from a table
// filled with the very same expression rate·float64(c)/float64(d), so a
// table read and a division return identical bits.
type contactRates struct {
	rate float64
	// enabled[side] is all ones when that side may transfer, else zero;
	// side 1 is an informed (pushing) vertex, side 0 an uninformed
	// (pulling) one.
	enabled [2]uint64
	// table[c] = rate·c/d for c = 0..d when the loaded graph is d-regular;
	// nil on irregular graphs. tableDeg is the d it was built for (-1 for
	// none), so reloading a graph of the same degree reuses it.
	table    []float64
	tableBuf []float64
	tableDeg int
}

// prepare re-targets the formula to a run in the given mode and clock rate.
func (r *contactRates) prepare(mode Mode, rate float64) {
	r.rate = rate
	r.enabled = [2]uint64{}
	if mode != PushOnly {
		r.enabled[0] = ^uint64(0)
	}
	if mode != PullOnly {
		r.enabled[1] = ^uint64(0)
	}
	r.table = nil
	r.tableDeg = -1
}

// load fits the formula to a freshly exposed graph: a regular graph gets
// the quotient table, any other graph the division.
func (r *contactRates) load(g *graph.Graph) {
	regular, d := g.IsRegular()
	if !regular {
		r.table = nil
		return
	}
	if d != r.tableDeg {
		r.tableBuf = growFloats(r.tableBuf, d+1)
		for c := range r.tableBuf {
			r.tableBuf[c] = r.rate * float64(c) / float64(d)
		}
		r.tableDeg = d
	}
	r.table = r.tableBuf
}

// weight returns the rate of vertex u of graph g with c neighbors across
// the cut; side is 1 if u is informed, else 0.
func (r *contactRates) weight(g *graph.Graph, u, c, side int) float64 {
	var w float64
	if r.table != nil {
		w = r.table[c]
	} else {
		w = r.rate * float64(c) / float64(g.Degree(u))
	}
	return math.Float64frombits(math.Float64bits(w) & r.enabled[side&1] & nonzero(c))
}

// nonzero returns all ones if c != 0, else zero, without a branch: c | -c
// has its sign bit set exactly when c is nonzero.
func nonzero(c int) uint64 { return uint64((c | -c) >> 63) }

// b2i returns 1 for true and 0 for false; the compiler lowers it to a
// zero-extension, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// countCut sets counts[v] to the number of v's neighbors on the other side
// of the informed/uninformed cut. It scans only the side with the smaller
// volume and credits each cut edge to both endpoints, which is exact
// because adjacency is symmetric; a static run's first load, with one
// informed vertex, costs O(n + deg(start)) instead of O(n + m).
func countCut[T int | int32](g *graph.Graph, informed []bool, counts []T) {
	vol := 0
	for v, inf := range informed {
		vol += g.Degree(v) & -b2i(inf)
	}
	scan := 2*vol <= g.Volume() // true: scan the informed side
	clear(counts)
	for v, inf := range informed {
		if inf != scan {
			continue
		}
		c := T(0)
		for _, u := range g.Neighbors(v) {
			x := T(b2i(informed[u] != inf))
			c += x
			counts[u] += x
		}
		counts[v] = c
	}
}
