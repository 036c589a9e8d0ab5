package experiment

import (
	"context"

	"dynamicrumor/internal/dynamic"
	"dynamicrumor/internal/engine"
	"dynamicrumor/internal/sim"
	"dynamicrumor/internal/stats"
	"dynamicrumor/internal/xrand"
)

// networkFactory builds a fresh network instance (stateful adaptive networks
// must not be reused across repetitions) and reports the start vertex. It is
// the engine's factory type; experiments plug it into a scenario's Custom
// network slot.
type networkFactory = engine.NetworkFactory

// measure fans reps repetitions of the scenario out over cfg.Parallelism
// workers via the shared engine and returns the spread times in repetition
// order. The engine reproduces the historical serial loops bit for bit
// (network from stream Split(1), protocol from Split(2)), so tables are
// unchanged by the migration. For runs that hit the cutoff the cutoff time is
// recorded; callers decide whether that matters.
//
// The batch streams through Engine.RunReduceFrom: only the spread-time
// scalars survive a repetition, so memory is one float64 per repetition
// instead of a retained sim.Result — the experiments only ever aggregate
// spread times, and exact (not estimated) quantiles over the full sample are
// what keeps the tables byte-identical.
func measure(cfg Config, factory networkFactory, reps int, rng *xrand.RNG, sc engine.Scenario) ([]float64, error) {
	if factory != nil {
		sc.Network = engine.NetworkSpec{Custom: factory}
	}
	eng := engine.Engine{Parallelism: cfg.Parallelism}
	times := make([]float64, reps)
	err := eng.RunReduceFrom(context.Background(), sc, reps, rng, func(rep int, res *sim.Result) error {
		times[rep] = res.SpreadTime
		return nil
	})
	if err != nil {
		return nil, err
	}
	return times, nil
}

// measureAsync runs the asynchronous simulator reps times and returns the
// spread times in repetition order. maxTime of 0 uses the simulator default.
func measureAsync(cfg Config, factory networkFactory, reps int, rng *xrand.RNG, maxTime float64) ([]float64, error) {
	return measure(cfg, factory, reps, rng, engine.Scenario{
		Protocol: engine.ProtocolAsync,
		MaxTime:  maxTime,
	})
}

// measureSync runs the synchronous simulator reps times and returns the round
// counts in repetition order.
func measureSync(cfg Config, factory networkFactory, reps int, rng *xrand.RNG, maxRounds int) ([]float64, error) {
	return measure(cfg, factory, reps, rng, engine.Scenario{
		Protocol:  engine.ProtocolSync,
		MaxRounds: maxRounds,
	})
}

// The experiment drivers are parameter sweeps, planned with the same shape
// the service's sweep planner uses (internal/service): one outermost grid
// axis, one cell per grid point, and a deterministic per-cell RNG stream.
// The stream discipline is exactly what the historical hand-rolled loops
// did — cell i draws from cfg.rng(base + i), and each measurement within a
// cell from consecutive rng.Split labels — so a driver rebuilt on these
// helpers reproduces its tables byte for byte.

// sweepOver drives one grid axis: cell i receives its axis value and the
// cell's base RNG (stream base+i). An error from a cell aborts the sweep.
func sweepOver[T any](cfg Config, base uint64, axis []T, cell func(i int, v T, rng *xrand.RNG) error) error {
	for i, v := range axis {
		if err := cell(i, v, cfg.rng(base+uint64(i))); err != nil {
			return err
		}
	}
	return nil
}

// measureCell measures one grid cell under several protocols — the per-cell
// protocol fan-out a sweep plans. Protocol k's ensemble draws from
// rng.Split(first+k), the consecutive-split layout of the historical loops;
// the zero MaxTime/MaxRounds select the simulator defaults, as the loops'
// explicit zeros did.
func measureCell(cfg Config, factory networkFactory, reps int, rng *xrand.RNG, first uint64, protocols ...engine.ProtocolKind) ([][]float64, error) {
	out := make([][]float64, len(protocols))
	for k, p := range protocols {
		times, err := measure(cfg, factory, reps, rng.Split(first+uint64(k)), engine.Scenario{Protocol: p})
		if err != nil {
			return nil, err
		}
		out[k] = times
	}
	return out, nil
}

// repScratch bundles the recycled simulator state and result one Monte-Carlo
// worker carries across all of its repetitions in the experiments that drive
// the simulators directly (E6, E9) rather than through the engine. Only the
// scalar extracted from the result survives a repetition, so reusing the
// result struct itself is safe.
type repScratch struct {
	sc  *sim.Scratch
	res sim.Result
}

func newRepScratch() *repScratch { return &repScratch{sc: sim.NewScratch()} }

// summary condenses a sample into (mean, 0.9-quantile).
func summary(times []float64) (mean, q90 float64) {
	return stats.Mean(times), stats.Quantile(times, 0.9)
}

// staticFactory wraps a fixed network (safe only for stateless networks).
func staticFactory(net dynamic.Network, start int) networkFactory {
	return func(*xrand.RNG) (dynamic.Network, int, error) { return net, start, nil }
}

// ratio returns a/b, or 0 when b is 0 (avoids Inf cells in tables).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// allPositive reports whether every value is strictly positive.
func allPositive(xs ...float64) bool {
	for _, x := range xs {
		if x <= 0 {
			return false
		}
	}
	return true
}
