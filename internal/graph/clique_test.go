package graph

import (
	"reflect"
	"testing"
)

// builderClique builds K_n through the builder, recycling dst.
func builderClique(dst *Graph, n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.BuildInto(dst)
}

// TestCliqueIntoMatchesBuilder pins CliqueInto to the builder path: the
// graphs are reflect.DeepEqual, fresh and when both recycle a larger retired
// graph.
func TestCliqueIntoMatchesBuilder(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 64, 300} {
		want := builderClique(nil, n)
		got := CliqueInto(nil, n)
		if err := got.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: CliqueInto differs from the builder", n)
		}
		wantRecycled := builderClique(builderClique(nil, 301), n)
		gotRecycled := CliqueInto(CliqueInto(nil, 301), n)
		if !reflect.DeepEqual(gotRecycled, wantRecycled) {
			t.Fatalf("n=%d: CliqueInto into a larger graph differs from the builder", n)
		}
	}
}

// TestCliqueIntoRecyclesBuffers checks that rebuilding into a graph of at
// least the same size reuses its arrays and allocates nothing.
func TestCliqueIntoRecyclesBuffers(t *testing.T) {
	g := CliqueInto(nil, 128)
	allocs := testing.AllocsPerRun(20, func() {
		if got := CliqueInto(g, 100); got != g {
			t.Fatal("CliqueInto moved the graph")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm clique rebuild allocates %.1f times, want 0", allocs)
	}
}

func TestCliqueIntoNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CliqueInto(nil, -1) did not panic")
		}
	}()
	CliqueInto(nil, -1)
}
