package dynamic

import (
	"fmt"

	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/xrand"
)

// EdgeMarkovian is the edge-Markovian evolving graph of Clementi et al.
// (Section 1.2, related work): at every step each absent edge appears with
// probability p and each present edge disappears with probability q,
// independently. It serves as a randomized-evolution baseline in the
// experiments, in contrast to the paper's adversarial constructions.
//
// The chain state is a flat presence bitmap over the n(n-1)/2 vertex pairs
// (in (u,v) lexicographic order), transitioned in place by xrand's bulk
// MarkovStep one row at a time, and each row's edges are emitted right after
// its transition — already sorted, so the build is a copy plus the
// adjacency fill. The recycled builder and two alternating graph buffers
// make steady-state steps allocation-free. The graph of step t stays valid
// until the rebuild for step t+2.
type EdgeMarkovian struct {
	n       int
	p, q    float64
	rng     *xrand.RNG
	initial *graph.Graph // chain start state, kept for Reset (may be nil)
	present []bool       // pair bitmap, index pairIndex(u, v)
	cols    []int        // emission scratch: one row's present columns
	rb      rebuilder
	current *graph.Graph
	prev    int
}

var _ Reusable = (*EdgeMarkovian)(nil)

// NewEdgeMarkovian creates an edge-Markovian network on n vertices starting
// from the given initial graph (nil starts from the empty graph).
func NewEdgeMarkovian(n int, p, q float64, initial *graph.Graph, rng *xrand.RNG) (*EdgeMarkovian, error) {
	if n < 2 {
		return nil, fmt.Errorf("dynamic: EdgeMarkovian needs n >= 2, got %d", n)
	}
	if p < 0 || p > 1 || q < 0 || q > 1 {
		return nil, fmt.Errorf("dynamic: EdgeMarkovian needs p, q in [0,1], got p=%v q=%v", p, q)
	}
	if initial != nil && initial.N() != n {
		return nil, fmt.Errorf("dynamic: EdgeMarkovian initial graph has %d vertices, want %d", initial.N(), n)
	}
	em := &EdgeMarkovian{n: n, p: p, q: q, initial: initial}
	em.present = make([]bool, n*(n-1)/2)
	em.cols = make([]int, n)
	em.rb = newRebuilder(n)
	if err := em.Reset(rng); err != nil {
		return nil, err
	}
	return em, nil
}

// Reset implements Reusable: the chain returns to the initial graph with the
// new rng, recycling the pair bitmap and graph buffers. Like the constructor
// it draws nothing from rng (the chain only draws on transitions).
func (em *EdgeMarkovian) Reset(rng *xrand.RNG) error {
	em.rng = rng
	em.prev = 0
	for i := range em.present {
		em.present[i] = false
	}
	if em.initial != nil {
		for _, e := range em.initial.Edges() {
			em.present[em.pairIndex(e.U, e.V)] = true
		}
	}
	em.materialize(false)
	return nil
}

// pairIndex maps the canonical pair (u, v) with u < v to its position in the
// lexicographic enumeration of all pairs.
func (em *EdgeMarkovian) pairIndex(u, v int) int {
	return u*em.n - u*(u+1)/2 + (v - u - 1)
}

// N implements Network.
func (em *EdgeMarkovian) N() int { return em.n }

// GraphAt implements Network. Each call with a new step value advances the
// Markov chain by one transition.
func (em *EdgeMarkovian) GraphAt(t int, _ []bool) *graph.Graph {
	if t <= em.prev {
		return em.current
	}
	// Steps nobody asked for only move the chain; the last one also emits.
	for ; em.prev < t-1; em.prev++ {
		em.rng.MarkovStep(em.present, em.p, em.q)
	}
	em.prev = t
	em.materialize(true)
	return em.current
}

// materialize emits the pair bitmap into the recycled builder row by row —
// u ascending, then v — so the edges reach the builder sorted and distinct
// and its build skips the sort. With advance, each row first takes one
// Markov step: one draw per pair in (u, v) lexicographic order, the same
// stream as the historical map-based implementation, fused with the
// emission so the bitmap is read once per step.
func (em *EdgeMarkovian) materialize(advance bool) {
	b := em.rb.begin(em.n)
	row := em.present
	for u := 0; u < em.n-1; u++ {
		pairs := row[:em.n-1-u]
		row = row[len(pairs):]
		if advance {
			em.rng.MarkovStep(pairs, em.p, em.q)
		}
		// Compact the row's present columns without a branch on the
		// coin flips, then emit them.
		k := 0
		for j, on := range pairs {
			em.cols[k] = j
			if on {
				k++
			}
		}
		for _, j := range em.cols[:k] {
			b.AddEdge(u, u+1+j)
		}
	}
	em.current = em.rb.flip()
}

// MobileAgents models the related-work scenario of agents performing
// independent random walks on a 2-dimensional torus grid: two agents are
// adjacent whenever they occupy the same or a 4-neighboring cell. The rumor
// travels between adjacent agents exactly like in any other dynamic network.
//
// The proximity graph is re-derived every step by bucketing agents per cell
// with a counting sort into recycled arrays, then emitted into a recycled
// builder and two alternating graph buffers — no per-step maps or
// allocations. The graph of step t stays valid until the rebuild for t+2.
type MobileAgents struct {
	agents int
	side   int
	rng    *xrand.RNG
	posR   []int
	posC   []int

	cellStart []int // bucket offsets per cell, length side²+1
	cellFill  []int // scatter cursors, length side²
	byCell    []int // agent ids grouped by cell, length agents
	rb        rebuilder
	current   *graph.Graph
	prev      int
}

var _ Reusable = (*MobileAgents)(nil)

// cellOffsets are the same-cell and 4-neighbor probes of the proximity rule.
var cellOffsets = [5][2]int{{0, 0}, {0, 1}, {1, 0}, {0, -1}, {-1, 0}}

// NewMobileAgents places `agents` agents uniformly at random on a side x side
// torus grid.
func NewMobileAgents(agents, side int, rng *xrand.RNG) (*MobileAgents, error) {
	if agents < 2 || side < 2 {
		return nil, fmt.Errorf("dynamic: MobileAgents needs agents >= 2 and side >= 2")
	}
	m := &MobileAgents{agents: agents, side: side}
	m.posR = make([]int, agents)
	m.posC = make([]int, agents)
	m.cellStart = make([]int, side*side+1)
	m.cellFill = make([]int, side*side)
	m.byCell = make([]int, agents)
	m.rb = newRebuilder(agents)
	if err := m.Reset(rng); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset implements Reusable: the agents are re-placed uniformly at random
// from the new rng — the same 2·agents Intn draws, in the same order, as the
// constructor — and the proximity graph is re-derived into the recycled
// buffers.
func (m *MobileAgents) Reset(rng *xrand.RNG) error {
	m.rng = rng
	m.prev = 0
	for i := 0; i < m.agents; i++ {
		m.posR[i] = rng.Intn(m.side)
		m.posC[i] = rng.Intn(m.side)
	}
	m.materialize()
	return nil
}

// N implements Network (the vertices are the agents).
func (m *MobileAgents) N() int { return m.agents }

// GraphAt implements Network: each new step moves every agent one random-walk
// step (stay or move to one of the four torus neighbors) and recomputes the
// proximity graph.
func (m *MobileAgents) GraphAt(t int, _ []bool) *graph.Graph {
	if t <= m.prev {
		return m.current
	}
	for step := m.prev; step < t; step++ {
		m.walk()
	}
	m.prev = t
	m.materialize()
	return m.current
}

func (m *MobileAgents) walk() {
	for i := 0; i < m.agents; i++ {
		switch m.rng.Intn(5) {
		case 0: // stay
		case 1:
			m.posR[i] = (m.posR[i] + 1) % m.side
		case 2:
			m.posR[i] = (m.posR[i] - 1 + m.side) % m.side
		case 3:
			m.posC[i] = (m.posC[i] + 1) % m.side
		case 4:
			m.posC[i] = (m.posC[i] - 1 + m.side) % m.side
		}
	}
}

// materialize re-derives the proximity graph from the agent positions.
func (m *MobileAgents) materialize() {
	// Counting sort of agents by cell id.
	cells := m.side * m.side
	for k := 0; k <= cells; k++ {
		m.cellStart[k] = 0
	}
	for i := 0; i < m.agents; i++ {
		m.cellStart[m.posR[i]*m.side+m.posC[i]+1]++
	}
	for k := 0; k < cells; k++ {
		m.cellStart[k+1] += m.cellStart[k]
	}
	copy(m.cellFill, m.cellStart[:cells])
	for i := 0; i < m.agents; i++ {
		k := m.posR[i]*m.side + m.posC[i]
		m.byCell[m.cellFill[k]] = i
		m.cellFill[k]++
	}
	// Connect agents in the same or 4-neighboring cells. Every adjacent
	// pair is met from both agents' cells; emitting it only from the lower
	// id halves the emission. On a side-2 torus opposite offsets reach the
	// same cell, so pairs still arrive twice and the build drops the copy.
	b := m.rb.begin(m.agents)
	for k := 0; k < cells; k++ {
		here := m.byCell[m.cellStart[k]:m.cellStart[k+1]]
		if len(here) == 0 {
			continue
		}
		r, c := k/m.side, k%m.side
		for _, off := range cellOffsets {
			nr := (r + off[0] + m.side) % m.side
			nc := (c + off[1] + m.side) % m.side
			nk := nr*m.side + nc
			neighbors := m.byCell[m.cellStart[nk]:m.cellStart[nk+1]]
			for _, a := range here {
				for _, b2 := range neighbors {
					if a < b2 {
						b.AddEdge(a, b2)
					}
				}
			}
		}
	}
	m.current = m.rb.flip()
}
