package graph

import (
	"sort"
	"testing"
)

// FuzzBuilderBuildInto compares Builder.BuildInto against the map-based
// reference build on arbitrary edge lists: self-loops, duplicates in either
// orientation, input in arbitrary, sorted-with-duplicates or strictly
// sorted order (the last takes the build's no-sort path), and a recycled
// destination graph of a different size. The built graph must agree with
// the reference in every observable and validate cleanly, and NumEdges must
// count the same distinct edges.
//
// data is read as (u, v) byte pairs reduced modulo n; mode picks the input
// order; dstN sizes the graph whose buffers the build recycles.
//
// The seed corpus lives in testdata/fuzz/FuzzBuilderBuildInto; plain
// `go test` runs it as a regression test.
func FuzzBuilderBuildInto(f *testing.F) {
	f.Fuzz(func(t *testing.T, n, dstN, mode uint8, data []byte) {
		nn := int(n) % 64
		var edges []Edge
		if nn > 0 {
			for i := 0; i+1 < len(data); i += 2 {
				edges = append(edges, Edge{U: int(data[i]) % nn, V: int(data[i+1]) % nn})
			}
		}
		switch mode % 3 {
		case 1: // canonical and sorted, duplicates and self-loops kept
			for i := range edges {
				edges[i] = edges[i].Canonical()
			}
			sortEdges(edges)
		case 2: // strictly sorted and distinct: the build's no-sort path
			var clean []Edge
			for _, e := range edges {
				if e.U != e.V {
					clean = append(clean, e.Canonical())
				}
			}
			sortEdges(clean)
			edges = edges[:0]
			for i, e := range clean {
				if i == 0 || e != clean[i-1] {
					edges = append(edges, e)
				}
			}
		}
		want := mapReferenceGraph(nn, edges)

		// A retired graph of another size whose buffers the build recycles.
		dn := int(dstN) % 80
		old := NewBuilder(dn)
		for v := 1; v < dn; v++ {
			old.AddEdge(v-1, v)
			old.AddEdge(0, v)
		}
		dst := old.Build()

		b := NewBuilder(nn)
		for _, e := range edges {
			b.AddEdge(e.U, e.V)
		}
		got := b.BuildInto(dst)
		if got != dst {
			t.Fatal("BuildInto did not return dst")
		}
		requireSameGraph(t, got, want)
		if m := b.NumEdges(); m != want.M() {
			t.Fatalf("NumEdges = %d, want %d", m, want.M())
		}
		// NumEdges may reorder the pending buffer; a second build must not
		// notice.
		requireSameGraph(t, b.Build(), want)
	})
}

func sortEdges(edges []Edge) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
}
