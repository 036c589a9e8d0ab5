package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"dynamicrumor/internal/sim"
)

// asyncGoldenFile pins the result bytes of both async stream disciplines:
// one line per (stream, mode, case) holding a SHA-256 over every
// repetition's SpreadTime bits, Events and Steps, for several start
// vertices. The kernels may get faster, but no line may ever change — v1 is
// frozen byte-for-byte, and v2's bytes are part of every cache key.
const asyncGoldenFile = "testdata/async_golden.txt"

// asyncGoldenCases spans the regimes the kernels specialize on: regular and
// irregular graphs, dense (v2 alias envelope) and sparse (Fenwick) backends,
// a clock rate other than 1, a run cut by MaxTime, and the dynamic families
// whose every step re-exposes a graph.
var asyncGoldenCases = []struct {
	name      string
	net       NetworkSpec
	starts    []int
	clockRate float64
	maxTime   float64
}{
	{name: "clique", net: NetworkSpec{Family: "clique", Params: Params{"n": 48}}, starts: []int{0, 17, 47}},
	{name: "clique-256", net: NetworkSpec{Family: "clique", Params: Params{"n": 256}}, starts: []int{0, 255}},
	{name: "clique-rate2.5", net: NetworkSpec{Family: "clique", Params: Params{"n": 33}}, starts: []int{0, 32}, clockRate: 2.5},
	{name: "star", net: NetworkSpec{Family: "star", Params: Params{"n": 40}}, starts: []int{0, 1, 39}},
	{name: "star-cut", net: NetworkSpec{Family: "star", Params: Params{"n": 40}}, starts: []int{5}, maxTime: 0.75},
	{name: "torus", net: NetworkSpec{Family: "torus", Params: Params{"rows": 6, "cols": 7}}, starts: []int{0, 20, 41}},
	{name: "hypercube", net: NetworkSpec{Family: "hypercube", Params: Params{"d": 5}}, starts: []int{0, 9, 31}},
	{name: "barbell", net: NetworkSpec{Family: "barbell", Params: Params{"k": 20}}, starts: []int{0, 19, 39}},
	{name: "complete-bipartite", net: NetworkSpec{Family: "complete-bipartite", Params: Params{"a": 12, "b": 40}}, starts: []int{0, 12, 51}},
	{name: "erdos-renyi", net: NetworkSpec{Family: "er", Params: Params{"n": 40, "p": 0.2}}, starts: []int{0, 13, 39}},
	{name: "dynamic-star", net: NetworkSpec{Family: "dynamic-star", Params: Params{"n": 40}}, starts: []int{1, 2, 39}},
	{name: "gnrho", net: NetworkSpec{Family: "gnrho", Params: Params{"n": 64, "rho": 0.25}}, starts: []int{0, 30, 63}},
	{name: "edge-markovian", net: NetworkSpec{Family: "edge-markovian", Params: Params{"n": 40, "p": 0.05, "q": 0.5}}, starts: []int{0, 20, 39}},
	{name: "mobile", net: NetworkSpec{Family: "mobile", Params: Params{"n": 40}}, starts: []int{0, 21, 39}},
}

// asyncGoldenLines runs every golden case and returns one "stream mode case
// digest" line each, in a fixed order.
func asyncGoldenLines(t *testing.T) []string {
	t.Helper()
	const reps = 8
	var lines []string
	for _, stream := range []int{sim.StreamV1, sim.StreamV2} {
		for _, mode := range []sim.Mode{sim.PushPull, sim.PushOnly, sim.PullOnly} {
			for _, c := range asyncGoldenCases {
				h := sha256.New()
				var buf [8]byte
				put := func(x uint64) {
					binary.LittleEndian.PutUint64(buf[:], x)
					h.Write(buf[:])
				}
				for _, start := range c.starts {
					sc := Scenario{
						Network:   c.net,
						Mode:      mode,
						Start:     &start,
						ClockRate: c.clockRate,
						MaxTime:   c.maxTime,
						Stream:    stream,
					}
					ens, err := (Engine{Seed: 20200424}).RunBatch(sc, reps)
					if err != nil {
						t.Fatalf("v%d %s %s start %d: %v", stream, mode, c.name, start, err)
					}
					for _, r := range ens.Results {
						put(math.Float64bits(r.SpreadTime))
						put(uint64(r.Events))
						put(uint64(r.Steps))
					}
				}
				lines = append(lines, fmt.Sprintf("v%d %s %s %x", stream, mode, c.name, h.Sum(nil)))
			}
		}
	}
	return lines
}

// TestAsyncGoldenDigest fails if any async result byte differs from the
// committed golden file, naming every (stream, mode, case) that moved.
func TestAsyncGoldenDigest(t *testing.T) {
	got := asyncGoldenLines(t)
	data, err := os.ReadFile(asyncGoldenFile)
	if err != nil {
		t.Fatalf("%v; the current digest is:\n%s", err, strings.Join(got, "\n"))
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden file has %d lines, the run produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("result bytes changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
