// Package gen provides the graph generators used by the paper's
// constructions and by the experiment harness: standard families (cliques,
// stars, cycles, hypercubes, expanders, random regular graphs, ...) and the
// paper-specific constructions H_{k,Δ}(A,B) from Section 4 and the regular /
// near-regular graphs G(A,d) and G(A,d1,d2) from Section 5.1.
package gen

import (
	"fmt"

	"dynamicrumor/internal/graph"
)

// Clique returns the complete graph K_n.
func Clique(n int) *graph.Graph { return graph.CliqueInto(nil, n) }

// AppendClique emits the edges of the complete graph on vertices 0..n-1 into
// b (which must already accommodate n vertices). It is the shared emission
// primitive behind the clique-containing constructions and the degenerate
// complete-graph branches of the random-family emitters; Clique alone builds
// through graph.CliqueInto.
func AppendClique(b *graph.Builder, n int) {
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
}

// Star returns the star K_{1,n-1} with the given center vertex.
// It panics if center is out of range.
func Star(n, center int) *graph.Graph {
	if center < 0 || center >= n {
		panic(fmt.Sprintf("gen: star center %d out of range for n=%d", center, n))
	}
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		if v != center {
			b.AddEdge(center, v)
		}
	}
	return b.Build()
}

// Path returns the path 0-1-...-(n-1).
func Path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return b.Build()
}

// Cycle returns the cycle on n vertices (n >= 3 gives a proper cycle; smaller
// n degenerates into a path or an edgeless graph).
func Cycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	if n >= 3 {
		for v := 0; v < n; v++ {
			b.AddEdge(v, (v+1)%n)
		}
	} else if n == 2 {
		b.AddEdge(0, 1)
	}
	return b.Build()
}

// CompleteBipartite returns K_{a,b} on a+b vertices: the first a vertices form
// one side and the remaining b vertices the other.
func CompleteBipartite(a, b int) *graph.Graph {
	bu := graph.NewBuilder(a + b)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			bu.AddEdge(u, v)
		}
	}
	return bu.Build()
}

// Grid returns the rows x cols grid graph (4-neighbor lattice, no wraparound).
func Grid(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}

// Torus returns the rows x cols grid with wraparound in both dimensions,
// which is 4-regular for rows, cols >= 3.
func Torus(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddEdge(id(r, c), id(r, (c+1)%cols))
			b.AddEdge(id(r, c), id((r+1)%rows, c))
		}
	}
	return b.Build()
}

// Hypercube returns the d-dimensional hypercube on 2^d vertices.
// It panics if d < 0 or d > 30.
func Hypercube(d int) *graph.Graph {
	if d < 0 || d > 30 {
		panic(fmt.Sprintf("gen: hypercube dimension %d out of range", d))
	}
	n := 1 << uint(d)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for bit := 0; bit < d; bit++ {
			b.AddEdge(v, v^(1<<uint(bit)))
		}
	}
	return b.Build()
}

// Circulant returns the circulant graph on n vertices where each vertex v is
// connected to v±o (mod n) for every offset o in offsets. Offsets equal to 0
// or n are ignored.
func Circulant(n int, offsets []int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for _, o := range offsets {
			o = ((o % n) + n) % n
			if o == 0 {
				continue
			}
			b.AddEdge(v, (v+o)%n)
		}
	}
	return b.Build()
}

// Barbell returns two cliques of size k joined by a single edge between
// vertex k-1 (last vertex of the first clique) and vertex k (first vertex of
// the second clique). The total vertex count is 2k.
func Barbell(k int) *graph.Graph {
	b := graph.NewBuilder(2 * k)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			b.AddEdge(u, v)
			b.AddEdge(k+u, k+v)
		}
	}
	if k >= 1 {
		b.AddEdge(k-1, k)
	}
	return b.Build()
}

// CliqueWithPendant returns the n-node clique on vertices 0..n-1 plus a
// pendant vertex n attached to vertex 0, matching G^(0) of the dynamic
// network G1 in Figure 1(a) of the paper. The total vertex count is n+1.
func CliqueWithPendant(n int) *graph.Graph {
	b := graph.NewBuilder(n + 1)
	AppendClique(b, n)
	if n >= 1 {
		b.AddEdge(0, n)
	}
	return b.Build()
}

// TwoCliquesBridged returns two cliques over the vertex sets left and right
// joined by the single edge {bridgeLeft, bridgeRight}, matching G^(1) of the
// dynamic network G1 in Figure 1(a). n is the total number of vertices of the
// returned graph; left and right must partition a subset of 0..n-1 and the
// bridge endpoints must belong to the respective sides.
func TwoCliquesBridged(n int, left, right []int, bridgeLeft, bridgeRight int) *graph.Graph {
	b := graph.NewBuilder(n)
	addClique := func(vs []int) {
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				b.AddEdge(vs[i], vs[j])
			}
		}
	}
	addClique(left)
	addClique(right)
	b.AddEdge(bridgeLeft, bridgeRight)
	return b.Build()
}
