package dynamic

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"

	"dynamicrumor/internal/gen"
	"dynamicrumor/internal/xrand"
)

// graphAtGoldenFile pins the graph sequences of every rebuilding network:
// one line per case holding a SHA-256 over 30 steps of edge lists and
// compressed adjacency, followed by the next draw of the network's rng. The
// rebuilds may get faster, but no line may ever change — the graphs and the
// stream they consume are part of every v1 result.
const graphAtGoldenFile = "testdata/graphat_golden.txt"

// graphAtGoldenCases covers the edge-Markovian chain at ordinary, extreme
// and degenerate (p, q); the mobile torus from the aliasing side-2 grid up;
// and the adaptive adversaries, whose rebuilds follow the informed set.
func graphAtGoldenCases() []struct {
	name  string
	build func(rng *xrand.RNG) (Network, error)
} {
	type c = struct {
		name  string
		build func(rng *xrand.RNG) (Network, error)
	}
	cases := []c{}
	for _, pq := range [][2]float64{{0.05, 0.5}, {0.3, 0.1}, {0.001, 0.999}, {1, 0}, {0, 1}} {
		p, q := pq[0], pq[1]
		cases = append(cases, c{fmt.Sprintf("edge-markovian-p%v-q%v", p, q), func(rng *xrand.RNG) (Network, error) {
			return NewEdgeMarkovian(120, p, q, gen.Cycle(120), rng)
		}})
	}
	cases = append(cases, c{"edge-markovian-empty-start", func(rng *xrand.RNG) (Network, error) {
		return NewEdgeMarkovian(97, 0.05, 0.5, nil, rng)
	}})
	for _, side := range []int{2, 3, 16} {
		side := side
		cases = append(cases, c{fmt.Sprintf("mobile-side%d", side), func(rng *xrand.RNG) (Network, error) {
			return NewMobileAgents(60, side, rng)
		}})
	}
	for _, rho := range []float64{0.1, 0.25, 0.5} {
		rho := rho
		cases = append(cases, c{fmt.Sprintf("gnrho-rho%v", rho), func(rng *xrand.RNG) (Network, error) {
			return NewGNRho(200, rho, 0, rng)
		}})
	}
	cases = append(cases,
		c{"absgnrho", func(rng *xrand.RNG) (Network, error) { return NewAbsGNRho(120, 0.2, rng) }},
		c{"dynamic-star", func(rng *xrand.RNG) (Network, error) { return NewDichotomyG2(40, rng) }},
	)
	return cases
}

// graphAtGoldenLines drives every case for 30 steps and returns one
// "case digest next-draw" line each. The informed set grows by a fixed
// non-random rule, so the digest depends only on the network under test.
func graphAtGoldenLines(t *testing.T) []string {
	t.Helper()
	const steps = 30
	var lines []string
	for i, tc := range graphAtGoldenCases() {
		rng := xrand.New(20200424 + uint64(i))
		net, err := tc.build(rng)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := sha256.New()
		var buf [8]byte
		put := func(x int) {
			binary.LittleEndian.PutUint64(buf[:], uint64(x))
			h.Write(buf[:])
		}
		n := net.N()
		informed := make([]bool, n)
		informed[0] = true
		walk := uint64(i)
		for step := 0; step < steps; step++ {
			g := net.GraphAt(step, informed)
			if err := g.Validate(); err != nil {
				t.Fatalf("%s step %d: %v", tc.name, step, err)
			}
			put(g.N())
			put(g.M())
			for _, e := range g.Edges() {
				put(e.U)
				put(e.V)
			}
			for v := 0; v < g.N(); v++ {
				put(g.Degree(v))
				for _, u := range g.Neighbors(v) {
					put(u)
				}
			}
			for k := 0; k < 1+n/16; k++ {
				walk = walk*6364136223846793005 + 1442695040888963407
				informed[int((walk>>33)%uint64(n))] = true
			}
			if step == steps-8 {
				// The run completes: the last steps see everyone informed,
				// which sends the dynamic star's center to a random vertex.
				for v := range informed {
					informed[v] = true
				}
			}
		}
		lines = append(lines, fmt.Sprintf("%s %x %016x", tc.name, h.Sum(nil), rng.Uint64()))
	}
	return lines
}

// TestGraphAtGoldenDigest fails if any step graph or the rng position after
// it differs from the committed golden file, naming every case that moved.
func TestGraphAtGoldenDigest(t *testing.T) {
	got := graphAtGoldenLines(t)
	data, err := os.ReadFile(graphAtGoldenFile)
	if err != nil {
		t.Fatalf("%v; the current digest is:\n%s", err, strings.Join(got, "\n"))
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden file has %d lines, the run produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("graph sequence changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
