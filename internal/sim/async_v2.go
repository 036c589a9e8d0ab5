package sim

import (
	"dynamicrumor/internal/dynamic"
	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/xrand"
)

// Stream-discipline selectors for AsyncOptions.StreamVersion.
const (
	// StreamV1 is the frozen, seed-compatible discipline: Fenwick-tree
	// sampling and scalar variate draws, bit-identical to every historical
	// release. It is the default (a zero StreamVersion selects it too).
	StreamV1 = 1
	// StreamV2 is the opt-in fast discipline: batched variate generation,
	// structure-of-arrays state, and a density-adaptive sampler that
	// switches to alias-snapshot rejection sampling on dense graphs. It
	// consumes a different random stream, so its results are statistically
	// equivalent to v1 — the law of the simulated process is identical —
	// but not byte-identical. The equivalence is enforced by
	// internal/statcheck.
	StreamV2 = 2
)

// v2BufLen and v2BufMin bound the batch size of the v2 variate buffers: a
// run's first fill draws v2BufMin variates and every refill doubles the
// batch up to v2BufLen, so long runs amortize the per-call cost of the Fill
// routines while short runs (small n, where per-rep overhead dominates)
// waste at most a few dozen draws when they end mid-batch.
const (
	v2BufLen = 256
	v2BufMin = 32
)

// v2DenseDegree is the average-degree threshold above which the v2 sampler
// uses the alias-snapshot envelope instead of a live Fenwick tree. The
// envelope pays off exactly when one inform changes many weights (its
// per-weight update is O(1) against the Fenwick tree's O(log n)); on sparse
// graphs an inform touches only deg+1 weights and the Fenwick tree's exact
// O(log n) draws beat the envelope's rejection loop and periodic O(n)
// snapshot rebuilds.
const v2DenseDegree = 16

// v2Headroom scales the frozen snapshot into the envelope: a vertex's bound
// is v2Headroom × its snapshot weight, so a weight has to *double* past its
// snapshot before the vertex carries surplus and joins the changed list.
// Without headroom, one inform on a dense graph nudges every neighbor's
// weight above an exact snapshot and forces an O(n) rebuild per event;
// with it, the i-th rebuild happens only after the mass doubled again —
// O(log) rebuilds per run. The price is acceptance 1/v2Headroom right after
// a rebuild, i.e. an expected ≤ v2Headroom O(1) proposals per draw.
const v2Headroom = 2.0

// v2MaxEnvelope triggers a rebuild when envelope > v2MaxEnvelope × live
// total, bounding expected proposals per draw by v2MaxEnvelope. It must
// exceed v2Headroom (the envelope starts at v2Headroom × total) or every
// draw would rebuild.
const v2MaxEnvelope = 4.0

// asyncStateV2 is the structure-of-arrays state of the v2 asynchronous
// simulator. It tracks the same per-vertex informative rates as asyncState
// (see that type for the model) but draws its variates in batches and picks
// its weighted sampler by graph density:
//
//   - sparse graphs (average degree < v2DenseDegree) use a live Fenwick
//     tree exactly like v1: an inform updates only deg+1 weights, so the
//     O(log n) point updates and exact O(log n) draws are already optimal;
//
//   - dense graphs use a two-part envelope: a Walker alias table built over
//     a frozen snapshot of the weights gives O(1) proposals for the bulk of
//     the mass (with v2Headroom× headroom so slowly rising weights stay
//     under their bound), and vertices whose live weight rose above the
//     bound keep the excess in a "surplus" component sampled by a linear
//     walk over the capped list of such vertices. A proposal from the
//     mixture is distributed proportionally to the envelope
//     ŵ(v) = max(v2Headroom·snapshot(v), live(v)) and accepted with
//     probability live(v)/ŵ(v), which makes the accepted vertex exactly
//     proportional to the live weights — the same law the Fenwick tree
//     samples. The snapshot is rebuilt (O(n)) when the envelope's total
//     exceeds v2MaxEnvelope × the live total or the surplus list outgrows
//     its cap, which bounds the expected proposals per accepted sample by
//     v2MaxEnvelope. The win is the update path: an inform on a dense graph
//     changes Θ(n) weights, each a constant-time bound check here versus a
//     Θ(log n) tree update in v1.
type asyncStateV2 struct {
	n        int
	rates    contactRates
	informed []bool
	g        *graph.Graph
	// counts[v] is the number of uninformed neighbors if v is informed, and
	// the number of informed neighbors if v is uninformed.
	counts []int32
	// cur[v] is the live informative rate of v; curTotal is its running sum
	// (resynced on every snapshot rebuild to stop floating-point drift).
	cur      []float64
	curTotal float64

	// dense selects the sampling backend for the currently loaded graph:
	// the alias-snapshot envelope below when true, the live Fenwick tree fen
	// when false. Chosen per graph in loadGraph, so a dynamic network may
	// alternate backends across exposures.
	dense bool
	// fen is the sparse backend: a Fenwick tree over the live weights.
	fen fenwick
	// alias is the dense backend's snapshot sampler; alias.weight is the
	// snapshot itself.
	alias        aliasTable
	snapTotal    float64
	surplusTotal float64
	// changed lists the vertices whose live weight ever exceeded their
	// headroomed bound v2Headroom·snapshot since the last rebuild (inChanged
	// deduplicates membership). Only entries still above the bound carry
	// surplus mass; ones that dropped back ride along until the next rebuild.
	changed   []int32
	inChanged []bool

	// Batched variates: unit exponentials for waiting times and uniforms for
	// proposals/acceptance, refilled v2BufLen at a time.
	expBuf []float64
	expPos int
	expLen int // current fill width, doubling v2BufMin → v2BufLen
	uniBuf []float64
	uniPos int
	uniLen int
}

// prepare re-targets the state to a run on n vertices, recycling every
// backing array and invalidating the variate buffers (each run has its own
// RNG stream, so leftovers from a previous repetition must never leak in).
func (st *asyncStateV2) prepare(n int, mode Mode, rate float64) {
	st.n = n
	st.rates.prepare(mode, rate)
	st.g = nil
	st.informed = growBools(st.informed, n)
	st.counts = growInt32s(st.counts, n)
	st.cur = growFloats(st.cur, n)
	st.inChanged = growBools(st.inChanged, n)
	st.changed = st.changed[:0]
	st.expBuf = growFloats(st.expBuf, v2BufLen)
	st.uniBuf = growFloats(st.uniBuf, v2BufLen)
	st.expPos, st.expLen = 0, 0
	st.uniPos, st.uniLen = 0, 0
}

// nextExp returns the next batched unit exponential.
func (st *asyncStateV2) nextExp(rng *xrand.RNG) float64 {
	if st.expPos >= st.expLen {
		st.expLen *= 2
		if st.expLen < v2BufMin {
			st.expLen = v2BufMin
		} else if st.expLen > v2BufLen {
			st.expLen = v2BufLen
		}
		rng.ExpFill(1, st.expBuf[:st.expLen])
		st.expPos = 0
	}
	v := st.expBuf[st.expPos]
	st.expPos++
	return v
}

// nextUni returns the next batched uniform in [0, 1).
func (st *asyncStateV2) nextUni(rng *xrand.RNG) float64 {
	if st.uniPos >= st.uniLen {
		st.uniLen *= 2
		if st.uniLen < v2BufMin {
			st.uniLen = v2BufMin
		} else if st.uniLen > v2BufLen {
			st.uniLen = v2BufLen
		}
		rng.Float64Fill(st.uniBuf[:st.uniLen])
		st.uniPos = 0
	}
	v := st.uniBuf[st.uniPos]
	st.uniPos++
	return v
}

// changedCap returns the changed-list size that forces a snapshot rebuild:
// past it, the linear surplus walk would stop being cheap.
func (st *asyncStateV2) changedCap() int { return 16 + st.n/4 }

// loadGraph recomputes counts and live weights for a freshly exposed graph,
// picks the sampling backend for its density, and (re)builds that backend;
// the counting and weight passes are asyncState.loadGraph's.
func (st *asyncStateV2) loadGraph(g *graph.Graph) {
	st.g = g
	st.rates.load(g)
	countCut(g, st.informed, st.counts)
	for v, c := range st.counts {
		st.cur[v] = st.rates.weight(g, v, int(c), b2i(st.informed[v]))
	}
	st.dense = g.Volume() >= v2DenseDegree*st.n
	if st.dense {
		st.rebuildSnapshot()
		return
	}
	// Sparse backend: bulk-load the live weights into the Fenwick tree and
	// retire any envelope state left over from a dense exposure.
	st.fen.Resize(st.n)
	total := 0.0
	for v := 0; v < st.n; v++ {
		if w := st.cur[v]; w > 0 {
			st.fen.Add(v, w)
			total += w
		}
	}
	st.curTotal = total
	st.snapTotal = 0
	st.surplusTotal = 0
	for _, v := range st.changed {
		st.inChanged[v] = false
	}
	st.changed = st.changed[:0]
}

// rebuildSnapshot freezes the live weights into a fresh alias table (the
// envelope carries v2Headroom× that mass), empties the surplus component,
// and resyncs the running total against the exact sum.
func (st *asyncStateV2) rebuildSnapshot() {
	st.alias.build(st.cur[:st.n])
	st.snapTotal = v2Headroom * st.alias.total
	st.curTotal = st.alias.total
	st.surplusTotal = 0
	for _, v := range st.changed {
		st.inChanged[v] = false
	}
	st.changed = st.changed[:0]
}

// settle carries a change of v's live weight from old to w into the
// sampling backend: a Fenwick update on sparse graphs, and on dense ones a
// move of v's share of the surplus component (its mass above the
// headroomed bound), listing v once it has any.
func (st *asyncStateV2) settle(v int, old, w float64) {
	if !st.dense {
		st.fen.Set(v, w)
		return
	}
	bound := v2Headroom * st.alias.weight[v]
	oldSurplus := old - bound
	if oldSurplus < 0 {
		oldSurplus = 0
	}
	newSurplus := w - bound
	if newSurplus < 0 {
		newSurplus = 0
	}
	if newSurplus == oldSurplus {
		return // still under the headroomed bound: no envelope change
	}
	st.surplusTotal += newSurplus - oldSurplus
	if st.surplusTotal < 0 {
		// Accumulated rounding; the component is empty.
		st.surplusTotal = 0
	}
	if newSurplus > 0 && !st.inChanged[v] {
		st.inChanged[v] = true
		st.changed = append(st.changed, int32(v))
	}
}

// maybeRebuild rebuilds the dense backend's snapshot when the envelope has
// drifted too far from the live weights (acceptance below 1/v2MaxEnvelope)
// or the surplus list outgrew its cap. The sparse backend is always exact.
func (st *asyncStateV2) maybeRebuild() {
	if !st.dense {
		return
	}
	if len(st.changed) > st.changedCap() ||
		(st.curTotal > 0 && st.snapTotal+st.surplusTotal > v2MaxEnvelope*st.curTotal) {
		st.rebuildSnapshot()
	}
}

// total returns the aggregate live rate used for waiting times and draws:
// the Fenwick tree's exact sum on sparse graphs (mirroring v1, which also
// resums the tree every event), the running scalar on dense ones (where the
// rejection loop tolerates its drift and resyncs on every rebuild).
func (st *asyncStateV2) total() float64 {
	if !st.dense {
		return st.fen.Total()
	}
	return st.curTotal
}

// sampleVertex draws a vertex proportionally to the live weights — exactly
// via the Fenwick tree on sparse graphs, via the envelope rejection loop on
// dense ones — or -1 when the live total is (numerically) empty. total must
// be the caller's st.total(), already computed for the waiting-time draw.
func (st *asyncStateV2) sampleVertex(rng *xrand.RNG, total float64) int {
	if total <= 0 {
		return -1
	}
	if !st.dense {
		return st.fen.Sample(st.nextUni(rng) * total)
	}
	for attempt := 0; attempt <= 64; attempt++ {
		if attempt == 32 {
			// Pathological rounding: force the envelope tight, after which
			// every proposal with positive live weight accepts.
			st.rebuildSnapshot()
			if st.curTotal <= 0 {
				return -1
			}
		}
		env := st.snapTotal + st.surplusTotal
		if env <= 0 {
			return -1
		}
		var x int
		if st.surplusTotal > 0 {
			u := st.nextUni(rng) * env
			if u < st.snapTotal {
				x = st.alias.sample(rng)
			} else {
				x = st.sampleSurplus(u - st.snapTotal)
			}
		} else {
			x = st.alias.sample(rng)
		}
		if x < 0 {
			continue
		}
		w := st.cur[x]
		if w <= 0 {
			continue
		}
		bound := v2Headroom * st.alias.weight[x]
		if w > bound {
			bound = w
		}
		if w >= bound || st.nextUni(rng)*bound < w {
			return x
		}
	}
	return -1
}

// sampleSurplus walks the changed list accumulating surplus mass until it
// covers target. Rounding at the upper boundary falls back to the last
// positive-surplus vertex.
func (st *asyncStateV2) sampleSurplus(target float64) int {
	last := -1
	for _, vi := range st.changed {
		v := int(vi)
		s := st.cur[v] - v2Headroom*st.alias.weight[v]
		if s <= 0 {
			continue
		}
		last = v
		target -= s
		if target < 0 {
			return v
		}
	}
	return last
}

// sampleNewlyInformed draws the vertex informed by the next informative
// contact, mirroring asyncState.sampleNewlyInformed on the v2 state.
func (st *asyncStateV2) sampleNewlyInformed(rng *xrand.RNG, total float64) int {
	x := st.sampleVertex(rng, total)
	if x < 0 {
		return -1
	}
	if !st.informed[x] {
		// x pulled the rumor from one of its informed neighbors.
		return x
	}
	// x pushed the rumor to a uniformly random uninformed neighbor.
	return pushTarget(st.g.Neighbors(x), st.informed, rng.Intn(int(st.counts[x])))
}

// inform marks v as informed and updates counts, live weights and the
// sampling backend; the count and weight updates are asyncState.inform's.
func (st *asyncStateV2) inform(v int) {
	if st.informed[v] {
		return
	}
	st.informed[v] = true
	g, counts, informed, rates := st.g, st.counts, st.informed, &st.rates
	nb := g.Neighbors(v)
	cnt := int32(len(nb)) - counts[v]
	counts[v] = cnt
	// set updates u's live weight and the backend bookkeeping. The running
	// total is carried in a local and stored once; it receives the same
	// additions in the same order. On a dense graph, a weight that stays
	// under its headroomed bound on both sides of the change has no surplus
	// before or after, so the envelope is left alone without computing
	// either.
	cur, snap, dense := st.cur, st.alias.weight, st.dense
	curTotal := st.curTotal
	set := func(u int, w float64) {
		old := cur[u]
		if w == old {
			return
		}
		cur[u] = w
		curTotal += w - old
		if dense {
			if bound := v2Headroom * snap[u]; old <= bound && w <= bound {
				return
			}
		}
		st.settle(u, old, w)
	}
	set(v, rates.weight(g, v, int(cnt), 1))
	for _, u := range nb {
		side := b2i(informed[u])
		cu := counts[u] + int32(1-2*side)
		counts[u] = cu
		set(u, rates.weight(g, u, int(cu), side))
	}
	st.curTotal = curTotal
	st.maybeRebuild()
}

// runAsyncV2Into is the v2 simulate loop: identical control flow to
// RunAsyncInto (unit intervals, informative-contact events, boundary
// advances) over the density-adaptive sampler and batched variates. Options
// have already been validated by the dispatching entry point.
func runAsyncV2Into(net dynamic.Network, opts AsyncOptions, rng *xrand.RNG, sc *Scratch, res *Result) (*Result, error) {
	n := net.N()
	if opts.Start < 0 || opts.Start >= n {
		return nil, ErrInvalidStart
	}
	if res == nil {
		res = &Result{}
	}
	if n == 0 {
		res.reset(0)
		res.Informed = 0
		res.Completed = true
		return res, nil
	}
	mode := opts.Mode.normalize()
	clockRate := opts.ClockRate
	if clockRate <= 0 {
		clockRate = 1
	}
	maxTime := opts.MaxTime
	if maxTime <= 0 {
		maxTime = 16 * float64(n) * float64(n)
	}
	if sc == nil {
		sc = NewScratch()
	}

	st := &sc.asyncV2
	st.prepare(n, mode, clockRate)
	st.informed[opts.Start] = true
	res.reset(n)
	if opts.RecordTrace {
		res.Trace = append(res.Trace, TracePoint{Time: 0, Informed: 1})
	}

	now := 0.0
	step := 0
	g := net.GraphAt(step, st.informed)
	st.loadGraph(g)

	for res.Informed < n {
		if now >= maxTime {
			res.SpreadTime = now
			return res, nil
		}
		boundary := float64(step + 1)
		advance := false
		total := st.total()
		if total <= 0 {
			advance = true
		} else {
			wait := st.nextExp(rng) / total
			if now+wait >= boundary {
				advance = true
			} else {
				now += wait
				v := st.sampleNewlyInformed(rng, total)
				if v < 0 {
					// Numerically empty cut; treat like a zero-rate interval.
					advance = true
				} else {
					st.inform(v)
					res.Informed++
					res.Events++
					if opts.RecordTrace {
						res.Trace = append(res.Trace, TracePoint{Time: now, Informed: res.Informed})
					}
					continue
				}
			}
		}
		if advance {
			now = boundary
			step++
			res.Steps++
			next := net.GraphAt(step, st.informed)
			if next != g {
				g = next
				st.loadGraph(g)
			}
		}
	}
	res.SpreadTime = now
	res.Completed = true
	return res, nil
}
