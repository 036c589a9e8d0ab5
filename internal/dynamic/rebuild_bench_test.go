package dynamic

import (
	"testing"

	"dynamicrumor/internal/gen"
	"dynamicrumor/internal/xrand"
)

// BenchmarkRebuild times one rebuild per iteration for every rebuilding
// family at the sizes of the dynamic-sweep workload (n = 1000). The random
// networks advance one step per GraphAt; gnrho rebuilds H_{k,Δ} through
// Reset, since its B side only shrinks; the dynamic star alternates its
// center between two vertices.
func BenchmarkRebuild(b *testing.B) {
	rng := xrand.New(1)
	em, err := NewEdgeMarkovian(1000, 0.05, 0.5, gen.Cycle(1000), rng)
	if err != nil {
		b.Fatal(err)
	}
	mobile, err := NewMobileAgents(1000, 16, rng)
	if err != nil {
		b.Fatal(err)
	}
	gnrho, err := NewGNRho(1000, 0.25, 0, rng)
	if err != nil {
		b.Fatal(err)
	}
	star, err := NewDichotomyG2(1999, rng)
	if err != nil {
		b.Fatal(err)
	}
	informed := make([]bool, star.N())
	cases := []struct {
		name string
		step func(t int)
	}{
		{"edge-markovian", func(t int) { em.GraphAt(t, nil) }},
		{"mobile", func(t int) { mobile.GraphAt(t, nil) }},
		{"gnrho", func(int) { gnrho.Reset(rng) }},
		{"dynamic-star", func(t int) {
			informed[0] = t%2 == 0
			star.GraphAt(t, informed)
		}},
	}
	tick := 0 // GraphAt only rebuilds for a step it has not seen
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tick++
				c.step(tick)
			}
		})
	}
}
