package engine

import (
	"context"
	"fmt"

	"dynamicrumor/internal/dynamic"
	"dynamicrumor/internal/gen"
	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/runner"
	"dynamicrumor/internal/sim"
	"dynamicrumor/internal/xrand"
)

// Engine executes scenarios. It holds the two execution-policy knobs —
// parallelism and the seed policy — and nothing about any particular
// scenario, so one engine can serve many scenarios.
//
// The zero value is ready to use: GOMAXPROCS workers, seed 0.
type Engine struct {
	// Parallelism is the number of worker goroutines for batch runs
	// (0 or negative means runtime.GOMAXPROCS(0)). Results are bit-identical
	// for every value; parallelism only changes wall-clock time.
	Parallelism int
	// Seed derives every repetition's private RNG stream. Equal seeds give
	// bit-identical ensembles.
	Seed uint64
	// ChunkSize is the number of consecutive repetitions a worker claims per
	// synchronization round (0 or negative selects an automatic size, see
	// runner.ChunkFor). Like Parallelism it is a pure throughput knob: results
	// are bit-identical for every value.
	ChunkSize int
}

// Run executes a scenario once and returns its result. It is equivalent to
// RunBatch with one repetition, so Run and RunBatch(…, 1) agree bit for bit.
func (e Engine) Run(sc Scenario) (*sim.Result, error) {
	ens, err := e.RunBatch(sc, 1)
	if err != nil {
		return nil, err
	}
	return ens.Results[0], nil
}

// RunBatch executes reps independent Monte-Carlo repetitions of the scenario
// and aggregates them into an Ensemble. Repetition i builds a fresh network
// instance and runs the protocol on it, both from private RNG streams derived
// from the engine seed, so the ensemble is bit-identical for every
// Parallelism value (see internal/runner).
func (e Engine) RunBatch(sc Scenario, reps int) (*Ensemble, error) {
	return e.RunBatchCtx(context.Background(), sc, reps)
}

// RunBatchCtx is RunBatch under a context: cancelling ctx stops the batch at
// the next repetition boundary (in-flight repetitions complete, no new ones
// start) and returns ctx.Err(). A batch that runs to completion is unaffected
// by its context, so RunBatchCtx(context.Background(), …) and RunBatch agree
// bit for bit.
func (e Engine) RunBatchCtx(ctx context.Context, sc Scenario, reps int) (*Ensemble, error) {
	return e.RunBatchFrom(ctx, sc, reps, xrand.New(e.Seed))
}

// RunBatchFrom is RunBatchCtx with an explicit base generator in place of the
// engine seed. It exists so callers that are themselves part of a larger
// deterministic experiment (the E1–E12 suite) can hand the engine a derived
// stream; most callers want RunBatch.
//
// The scenario is compiled once before the fan-out (see compileScenario):
// immutable networks are built a single time and shared read-only by every
// worker, and each worker recycles its builders, network instances and
// simulator scratch across all of its repetitions. Compilation never changes
// results — every repetition consumes exactly the RNG stream the historical
// build-per-repetition loop consumed.
//
// The base generator is advanced reps times over the course of the call —
// even when the run is cancelled — and must not be used concurrently with it.
func (e Engine) RunBatchFrom(ctx context.Context, sc Scenario, reps int, base *xrand.RNG) (*Ensemble, error) {
	cs, err := compileScenario(sc)
	if err != nil {
		return nil, err
	}
	if reps < 1 {
		return nil, fmt.Errorf("engine: reps must be >= 1, got %d", reps)
	}
	results, err := runner.MapLocalOpts(ctx, runner.Options{Parallelism: e.Parallelism, ChunkSize: e.ChunkSize}, reps, base, newWorkerState,
		func(rep int, sub *xrand.RNG, ws *workerState) (*sim.Result, error) {
			// Results are retained by the ensemble, so this path hands the
			// simulator a nil result and lets it allocate a fresh one.
			return cs.runRep(sub, ws, nil)
		})
	if err != nil {
		return nil, err
	}
	return &Ensemble{Scenario: sc, Results: results}, nil
}

// Reducer consumes one repetition's result. The engine calls it in strict
// repetition order (0, 1, 2, ...), never concurrently, so it can fold into
// plain accumulators without locking. The result is only valid for the
// duration of the call — the worker recycles it for its next repetition —
// so a reducer extracts what it needs and must not retain res or its trace.
type Reducer func(rep int, res *sim.Result) error

// RunReduce executes reps repetitions like RunBatch but streams each result
// into reduce instead of materializing an Ensemble: memory stays O(workers)
// no matter how large reps is, which is what makes 10⁵–10⁶-repetition
// ensembles practical. Repetition i's result is bit-identical to
// RunBatch's Results[i] — the two entry points share the compiled scenario
// and the per-repetition stream discipline — and the reduction order is the
// repetition order for every Parallelism value.
//
// A failing repetition (or a reducer error) aborts the run after every
// earlier repetition has been reduced; the returned error identifies the
// lowest failing repetition deterministically.
func (e Engine) RunReduce(sc Scenario, reps int, reduce Reducer) error {
	return e.RunReduceCtx(context.Background(), sc, reps, reduce)
}

// RunReduceCtx is RunReduce under a context: cancelling ctx stops the run at
// the next repetition boundary — every already-claimed repetition is still
// reduced, in order — and returns ctx.Err(). This is the entry point of
// long-lived callers (the rumord service) that must be able to abandon a
// batch without leaking its workers.
func (e Engine) RunReduceCtx(ctx context.Context, sc Scenario, reps int, reduce Reducer) error {
	return e.RunReduceFrom(ctx, sc, reps, xrand.New(e.Seed), reduce)
}

// RunReduceFrom is RunReduceCtx with an explicit base generator in place of
// the engine seed, mirroring RunBatchFrom.
func (e Engine) RunReduceFrom(ctx context.Context, sc Scenario, reps int, base *xrand.RNG, reduce Reducer) error {
	cs, err := compileScenario(sc)
	if err != nil {
		return err
	}
	return e.runReduceCompiled(ctx, cs, reps, base, reduce)
}

// RunReduceCompiledCtx is RunReduceCtx on an already-compiled scenario (see
// Compile and CompileSet): compilation — validation, strategy selection,
// deterministic network construction — is skipped, everything else is
// identical, so the reduction is bit-identical to RunReduceCtx on the same
// scenario. This is the hot entry point of sweep execution, where one
// compiled cell shape backs many runs.
func (e Engine) RunReduceCompiledCtx(ctx context.Context, c *Compiled, reps int, reduce Reducer) error {
	return e.runReduceCompiled(ctx, c.cs, reps, xrand.New(e.Seed), reduce)
}

// runReduceCompiled is the shared streaming-reduction body behind every
// RunReduce entry point.
func (e Engine) runReduceCompiled(ctx context.Context, cs *compiledScenario, reps int, base *xrand.RNG, reduce Reducer) error {
	if reps < 1 {
		return fmt.Errorf("engine: reps must be >= 1, got %d", reps)
	}
	// Workers claim and compute whole chunks before any of a chunk is reduced,
	// so each worker needs one distinct result slot per repetition of a chunk:
	// a ring of ChunkFor slots, advanced round-robin, is exactly that (a chunk
	// is fully reduced before its worker claims the next one, so a slot is
	// never overwritten while the reducer can still see it).
	ringSize := runner.ChunkFor(e.ChunkSize, reps, e.Parallelism)
	return runner.MapReduceOpts(ctx, runner.Options{Parallelism: e.Parallelism, ChunkSize: e.ChunkSize}, reps, base, newWorkerState,
		func(rep int, sub *xrand.RNG, ws *workerState) (*sim.Result, error) {
			if ws.resRing == nil {
				ws.resRing = make([]sim.Result, ringSize)
			}
			res := &ws.resRing[ws.resCur]
			ws.resCur++
			if ws.resCur == len(ws.resRing) {
				ws.resCur = 0
			}
			return cs.runRep(sub, ws, res)
		},
		runner.Reducer[*sim.Result](reduce))
}

// RunReduceRangeCtx executes only the repetition range [start, start+count)
// of a larger ensemble: the reducer receives global repetition indices, and
// repetition i's result is bit-identical to what RunReduceCtx would have
// handed the reducer for repetition i of a full run with the same seed. This
// is the shard-execution entry point of the distributed service
// (internal/cluster): a worker needs nothing but (scenario, seed, start,
// count) to reproduce its slice of the ensemble exactly, so shards can be
// re-executed on any node — after a worker death, say — without changing the
// merged result.
func (e Engine) RunReduceRangeCtx(ctx context.Context, sc Scenario, start, count int, reduce Reducer) error {
	cs, err := compileScenario(sc)
	if err != nil {
		return err
	}
	if start < 0 {
		return fmt.Errorf("engine: range start must be >= 0, got %d", start)
	}
	if count < 1 {
		return fmt.Errorf("engine: range count must be >= 1, got %d", count)
	}
	ringSize := runner.ChunkFor(e.ChunkSize, count, e.Parallelism)
	return runner.MapReduceRangeOpts(ctx, runner.Options{Parallelism: e.Parallelism, ChunkSize: e.ChunkSize}, start, count, xrand.New(e.Seed), newWorkerState,
		func(rep int, sub *xrand.RNG, ws *workerState) (*sim.Result, error) {
			if ws.resRing == nil {
				ws.resRing = make([]sim.Result, ringSize)
			}
			res := &ws.resRing[ws.resCur]
			ws.resCur++
			if ws.resCur == len(ws.resRing) {
				ws.resCur = 0
			}
			return cs.runRep(sub, ws, res)
		},
		runner.Reducer[*sim.Result](reduce))
}

// compiledScenario is a scenario compiled for a batch: the validation and
// every piece of per-batch work is done once, and the per-repetition job is
// reduced to (derive streams, obtain network, run protocol). Exactly one of
// the four network strategies is set:
//
//   - shared: an immutable network (deterministic static family, or a
//     shareable dynamic family) built once and read concurrently by all
//     workers;
//   - staticFam: a random static family rebuilt every repetition through the
//     worker's recycled builder and graph buffer (gen.BuildInto);
//   - dynFam: a stateful dynamic family; each worker builds one instance and
//     re-initializes it per repetition via dynamic.Reusable when supported;
//   - custom: a programmatic factory, invoked once per repetition.
type compiledScenario struct {
	sc           Scenario
	shared       dynamic.Network
	sharedStart  int
	staticFam    string
	staticParams gen.Params
	dynFam       *dynamicFamily
	dynParams    gen.Params
	custom       NetworkFactory
}

// compileScenario validates the scenario and selects its execution strategy.
// Deterministic constructions are materialized here, before the fan-out; the
// no-draw contract of gen.Family.Deterministic and dynamicFamily.shareable is
// what makes sharing them invisible to every repetition's RNG stream.
func compileScenario(sc Scenario) (*compiledScenario, error) {
	return compileScenarioShared(sc, nil)
}

// compileScenarioShared is compileScenario with an optional CompileSet: when
// set is non-nil, the shared read-only networks it has already built for an
// equal network spec are reused instead of rebuilt, so a grid of scenarios
// over the same graph pays its construction once.
func compileScenarioShared(sc Scenario, set *CompileSet) (*compiledScenario, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	cs := &compiledScenario{sc: sc}
	ns := sc.Network
	switch {
	case ns.Custom != nil:
		cs.custom = ns.Custom
	case dynamicFamilies[ns.Family].build != nil:
		fam := dynamicFamilies[ns.Family]
		if fam.shareable {
			net, start, err := set.lookupOrBuild(ns, func() (dynamic.Network, int, error) {
				return fam.build(ns.Params, nil)
			})
			if err != nil {
				return nil, fmt.Errorf("build network: %w", err)
			}
			cs.shared, cs.sharedStart = net, start
		} else {
			cs.dynFam, cs.dynParams = &fam, ns.Params
		}
	case gen.IsDeterministic(ns.Family):
		net, start, err := set.lookupOrBuild(ns, func() (dynamic.Network, int, error) {
			// The nil rng makes a family that violates the no-draw contract
			// fail loudly instead of silently skewing sibling repetitions'
			// streams.
			g, err := gen.Build(ns.Family, ns.Params, nil)
			if err != nil {
				return nil, 0, err
			}
			return dynamic.NewStatic(g), gen.DefaultStart(ns.Family, ns.Params, g), nil
		})
		if err != nil {
			return nil, fmt.Errorf("build network: %w", err)
		}
		cs.shared, cs.sharedStart = net, start
	default:
		cs.staticFam, cs.staticParams = ns.Family, ns.Params
	}
	return cs, nil
}

// workerState is the recycled state one batch worker carries across all of
// its repetitions: simulator scratch, a result buffer (reduce path only),
// the two per-repetition RNG values, and the network recycling machinery of
// whichever strategy the compiled scenario selected. None of it influences
// results — it is storage reuse, not input.
type workerState struct {
	scratch *sim.Scratch
	// resRing holds the reduce path's recycled results — one slot per
	// repetition of a claim chunk, allocated lazily on the worker's first
	// repetition and advanced round-robin by resCur.
	resRing  []sim.Result
	resCur   int
	netRNG   xrand.RNG
	protoRNG xrand.RNG

	// Random static families: recycled builder + emitter scratch + graph +
	// wrapper.
	builder *graph.Builder
	emit    gen.EmitScratch
	g       *graph.Graph
	static  *dynamic.Static

	// Dynamic families: the worker's cached instance and its start vertex.
	dyn      dynamic.Network
	dynStart int

	// Cached protocol value, rebuilt only if the start vertex changes.
	proto      sim.Protocol
	protoStart int
	reuse      sim.ReusableProtocol
	reuseOK    bool
}

func newWorkerState() *workerState { return &workerState{scratch: sim.NewScratch()} }

// runRep executes one repetition. The stream discipline — Split(1) for the
// network, Split(2) for the protocol — is a compatibility contract: it
// reproduces the historical serial loops bit for bit. Do not reorder. Shared
// and recycled networks keep the discipline intact because deriving the
// network stream consumes exactly one base draw whether or not the network
// then uses it.
func (cs *compiledScenario) runRep(sub *xrand.RNG, ws *workerState, res *sim.Result) (*sim.Result, error) {
	sub.SplitInto(1, &ws.netRNG)
	var (
		net   dynamic.Network
		start int
		err   error
	)
	switch {
	case cs.shared != nil:
		net, start = cs.shared, cs.sharedStart
	case cs.custom != nil:
		net, start, err = cs.custom(&ws.netRNG)
	case cs.dynFam != nil:
		if r, ok := ws.dyn.(dynamic.Reusable); ok {
			err = r.Reset(&ws.netRNG)
			net, start = ws.dyn, ws.dynStart
		} else {
			net, start, err = cs.dynFam.build(cs.dynParams, &ws.netRNG)
			if err == nil {
				ws.dyn, ws.dynStart = net, start
			}
		}
	default:
		if ws.builder == nil {
			ws.builder = graph.NewBuilder(0)
		}
		var g *graph.Graph
		g, err = gen.BuildInto(cs.staticFam, cs.staticParams, &ws.netRNG, ws.builder, ws.g, &ws.emit)
		if err == nil {
			if ws.static == nil || g != ws.g {
				ws.static = dynamic.NewStatic(g)
			}
			ws.g = g
			net, start = ws.static, gen.DefaultStart(cs.staticFam, cs.staticParams, g)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("build network: %w", err)
	}
	if cs.sc.Start != nil {
		start = *cs.sc.Start
	}
	if ws.proto == nil || start != ws.protoStart {
		ws.proto = cs.sc.protocolFor(start)
		ws.protoStart = start
		ws.reuse, ws.reuseOK = ws.proto.(sim.ReusableProtocol)
	}
	sub.SplitInto(2, &ws.protoRNG)
	// Every worker reuses one scratch (and, on the reduce path, one result)
	// across all of its repetitions; RunInto is contractually stream- and
	// output-identical to Run, so this is purely an allocation optimization.
	var out *sim.Result
	if ws.reuseOK {
		out, err = ws.reuse.RunInto(net, &ws.protoRNG, ws.scratch, res)
	} else {
		out, err = ws.proto.Run(net, &ws.protoRNG)
	}
	if err != nil {
		return nil, fmt.Errorf("%s run: %w", ws.proto.Kind(), err)
	}
	return out, nil
}
