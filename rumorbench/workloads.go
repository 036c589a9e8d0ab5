package main

import (
	"encoding/json"
	"errors"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"time"
)

// The four workloads. Each generates its requests from the seed alone, so a
// seed names one exact request sequence; only how many closed-loop cycles
// fit in the window depends on speed.

type workload struct {
	name    string
	cluster bool
	clients int // goroutines issuing requests
	conns   int // connections to the daemon
	// nominal is the design's submission-sample count in a run, which fixes
	// the tail percentile (see tailPercentile) independently of the run.
	nominal int
	// rate is the offered load of an open-loop workload (requests/s); 0 for
	// a closed loop.
	rate  float64
	drive func(d *loadGen) error
}

var workloads = []*workload{
	{name: "dense-ensemble", clients: 1, conns: 1, nominal: 48, drive: driveDense},
	{name: "dynamic-sweep", clients: 1, conns: 1, nominal: 300, drive: driveSweeps},
	{name: "admission-mixed", clients: 2, conns: 2, nominal: admissionNominal(), rate: admissionRate, drive: driveAdmission},
	{name: "cluster-shards", cluster: true, clients: 1, conns: 1, nominal: 100, drive: driveDense},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// loadGen carries one measured window: the client, the seeded generator and
// everything the window produced.
type loadGen struct {
	w       *workload
	c       *http.Client
	base    string
	rng     *rand.Rand
	seconds int
	// onStart runs between the warm-up and the measured window (the
	// harness's before-scrape and CPU baseline).
	onStart func() error

	subs   []*submission
	gets   []*getReq
	sweeps []*sweepStep
	start  time.Time
	end    time.Time
	// cpu reads the system under test's CPU time; cycles are a closed
	// loop's measured cycles (none for the open loop).
	cpu    func() (time.Duration, error)
	cycles []cycle
}

func newRNG(seed uint64, workload string) *rand.Rand {
	var salt uint64 = 0x9e3779b97f4a7c15
	for _, c := range workload {
		salt = salt*1099511628211 + uint64(c)
	}
	return rand.New(rand.NewPCG(seed, salt))
}

// ensembleJob is one closed-loop job type: a clique ensemble.
type ensembleJob struct {
	n, stream, reps int
}

// denseJobs alternates n ∈ {256, 1024} and stream v1/v2, with repetition
// counts that make every job take about a quarter second on two workers,
// so no one type dominates the window.
var denseJobs = []ensembleJob{{256, 1, 520}, {1024, 2, 36}, {256, 2, 460}, {1024, 1, 30}}

// clusterJobs are medium ensembles of small graphs: at clusterShard
// repetitions per lease each run is 100 leases of well under a millisecond
// of simulation, so the lease round trip, upload and merge dominate. A
// cycle is clusterPasses passes over them (about a second), long enough
// that the 10 ms ticks of the CPU-time clock stay a small part of it.
var clusterJobs = []ensembleJob{{48, 1, 2000}, {32, 2, 2000}}

const clusterPasses = 3

func runBody(family string, params map[string]int, stream, reps int, seed uint64) []byte {
	sc := map[string]any{"network": map[string]any{"family": family, "params": params}}
	if stream != 0 {
		sc["stream"] = stream
	}
	data, _ := json.Marshal(map[string]any{"scenario": sc, "reps": reps, "seed": seed})
	return data
}

// driveDense is the closed loop of dense-ensemble and cluster-shards: one
// client submits a job, waits for it to settle, and submits the next, in
// whole cycles over the job types until the window has elapsed. Every job
// has a fresh seed, so nothing is served from the cache.
func driveDense(d *loadGen) error {
	jobs, passes := denseJobs, 1
	if d.w.cluster {
		jobs, passes = clusterJobs, clusterPasses
	}
	return d.closedLoop(func(warm bool) (reps, n int, err error) {
		scale := 1
		if warm {
			scale = 8 // the warm-up cycle runs at an eighth of the size
		}
		for p := 0; p < passes; p++ {
			for _, j := range jobs {
				r := j.reps / scale
				s := &submission{kind: "job", reps: r, origin: -1,
					body: runBody("clique", map[string]int{"n": j.n}, j.stream, r, d.rng.Uint64())}
				s.do(d.c, d.base)
				s.due = s.sent
				if s.err != nil {
					return 0, 0, s.err
				}
				if _, err := waitJob(d.c, d.base, s.id); err != nil {
					return 0, 0, err
				}
				s.settledSeen = time.Now()
				if !warm {
					d.subs = append(d.subs, s)
				}
				reps, n = reps+r, n+1
			}
		}
		return reps, n, nil
	})
}

// cycle is one measured closed-loop cycle: one pass over the workload's
// job or sweep types.
type cycle struct {
	start, end time.Time
	cpu        time.Duration // system-under-test CPU time during the cycle
	reps, jobs int           // repetitions run and jobs (or sweep cells) settled
}

// closedLoop runs one unmeasured warm-up cycle, then whole measured cycles
// until the window has elapsed, sampling the system under test's CPU time
// at every cycle boundary. run performs one cycle and reports what it ran.
func (d *loadGen) closedLoop(run func(warm bool) (reps, jobs int, err error)) error {
	if _, _, err := run(true); err != nil {
		return err
	}
	if err := d.onStart(); err != nil {
		return err
	}
	cpu0, err := d.cpu()
	if err != nil {
		return err
	}
	d.start = time.Now()
	t0 := d.start
	for time.Since(d.start) < time.Duration(d.seconds)*time.Second {
		reps, jobs, err := run(false)
		if err != nil {
			return err
		}
		t1 := time.Now()
		cpu1, err := d.cpu()
		if err != nil {
			return err
		}
		d.cycles = append(d.cycles, cycle{start: t0, end: t1, cpu: cpu1 - cpu0, reps: reps, jobs: jobs})
		t0, cpu0 = t1, cpu1
	}
	d.end = time.Now()
	return nil
}

func seeds(r *rand.Rand, k int) []uint64 {
	out := make([]uint64, k)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

func sweepBody(spec map[string]any, reps int) []byte {
	data, _ := json.Marshal(map[string]any{"sweep": spec, "reps": reps})
	return data
}

// sweepKinds rotates the dynamic families of the paper's experiments —
// gnrho over a ρ grid, edge-Markovian, mobile agents, the dynamic star over
// n — and one deterministic static family crossed with every protocol, so
// the sweep's CompileSet builds each hypercube once and shares it across
// the protocol and seed cells.
var sweepKinds = []func(r *rand.Rand) *sweepStep{
	func(r *rand.Rand) *sweepStep {
		return &sweepStep{kind: "gnrho", cells: 6, reps: 10, body: sweepBody(map[string]any{
			"family": "gnrho", "n": []int{1000}, "params": map[string]any{"rho": []float64{0.1, 0.25, 0.5}},
			"seeds": seeds(r, 2)}, 10)}
	},
	func(r *rand.Rand) *sweepStep {
		return &sweepStep{kind: "edge-markovian", cells: 2, reps: 8, body: sweepBody(map[string]any{
			"family": "edge-markovian", "n": []int{1000}, "seeds": seeds(r, 2)}, 8)}
	},
	func(r *rand.Rand) *sweepStep {
		return &sweepStep{kind: "mobile", cells: 3, reps: 20, body: sweepBody(map[string]any{
			"family": "mobile", "n": []int{1000}, "seeds": seeds(r, 3)}, 20)}
	},
	func(r *rand.Rand) *sweepStep {
		return &sweepStep{kind: "dynamic-star", cells: 6, reps: 24, body: sweepBody(map[string]any{
			"family": "dynamic-star", "n": []int{2000, 4000}, "seeds": seeds(r, 3)}, 24)}
	},
	func(r *rand.Rand) *sweepStep {
		return &sweepStep{kind: "hypercube-protocols", cells: 12, networks: 2, reps: 16, body: sweepBody(map[string]any{
			"family": "hypercube", "params": map[string]any{"d": []int{10, 11}},
			"protocols": []string{"async", "sync", "flooding"}, "seeds": seeds(r, 2)}, 16)}
	},
}

// driveSweeps is dynamic-sweep's closed loop: POST a sweep, follow its SSE
// stream to the terminal event, next sweep; whole rotations over
// sweepKinds until the window has elapsed.
func driveSweeps(d *loadGen) error {
	return d.closedLoop(func(warm bool) (reps, cells int, err error) {
		for _, build := range sweepKinds {
			s := build(d.rng)
			s.do(d.c, d.base)
			if s.err != nil {
				return 0, 0, s.err
			}
			if !warm {
				d.sweeps = append(d.sweeps, s)
			}
			reps, cells = reps+s.cells*s.reps, cells+s.cells
		}
		return reps, cells, nil
	})
}

// The admission mix: independent users arrive at admissionRate, well below
// the knee of a durable daemon on two CPUs. A run offers exactly
// rate × seconds arrivals at uniformly random instants (a Poisson process
// conditioned on its count), and the request kinds are dealt from shuffled
// decks of 1000 with fixed proportions, so a 10 s window deals exactly two
// decks and its mix is the same for every seed while its order and timing
// are not.
const (
	admissionRate = 200.0
	// designSeconds is the window the tail percentile is fixed for.
	designSeconds = 10
	// Every admission job is clique-64 on the v2 stream, whose dense
	// backend (degree 63) never touches the v1 Fenwick tree. A new key runs
	// newReps repetitions (well under a millisecond). A coalescing leader
	// runs leaderReps (roughly 60–200 ms on two workers of a 2-CPU host):
	// its duplicate is sent right after the leader's response, but the
	// leader's own workers hold both CPUs, so the sender and the daemon's
	// handler can each wait a scheduler slice before the duplicate reaches
	// the in-flight table. With 200 repetitions the leader finished first
	// in 2 of 50 pairs; the count check fails the run if that happens.
	admissionStream = 2
	newReps         = 4
	leaderReps      = 600
)

// admissionDeck is one deck of 1000 arrivals: new keys (fsync'd ledger
// append, run, disk-cache put), repeats of settled keys (memory-cache hits),
// a leader with an immediate duplicate (the duplicate coalesces), status
// reads and trace reads. The proportions are a design choice, not a
// measurement: about half the arrivals take the write path and a quarter
// the read path, so each is a large share of the daemon's work; a single
// pair per deck exercises coalescing twice in a 10 s window while keeping
// the leaders' repetitions a minor share of the CPU; the rest are reads.
// A window that deals part of a deck holds a seed-dependent number of
// pairs, and each pair moves cpu_us_per_rep by several percent.
var admissionDeck = map[string]int{"new": 507, "repeat": 270, "pair": 1, "status": 161, "trace": 61}

func admissionNominal() int {
	n := int(admissionRate * designSeconds)
	per, size := admissionDeck["new"]+admissionDeck["repeat"]+2*admissionDeck["pair"], 0
	for _, k := range admissionDeck {
		size += k
	}
	return n * per / size
}

// admissionItem is one scheduled arrival: one or two submissions, or a GET.
type admissionItem struct {
	due  time.Duration // offset from the window start
	subs []int         // submissions, sent back to back in order
	get  int           // index into gets, or -1
}

// planAdmission draws the whole schedule from the seed.
func planAdmission(r *rand.Rand, seconds int) ([]*submission, []*getReq, []admissionItem) {
	n := int(admissionRate * float64(seconds))
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(r.Int64N(int64(seconds) * int64(time.Second)))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	var deck []string
	for _, k := range []string{"new", "repeat", "pair", "status", "trace"} {
		for i := 0; i < admissionDeck[k]; i++ {
			deck = append(deck, k)
		}
	}

	var subs []*submission
	var offs []time.Duration // due offset of each submission
	var gets []*getReq
	var items []admissionItem
	var newKeys []int // indices of "new" submissions, in due order
	add := func(s *submission, t time.Duration) int {
		s.ready = make(chan struct{})
		subs = append(subs, s)
		offs = append(offs, t)
		return len(subs) - 1
	}
	var hand []string
	for _, t := range dues {
		if len(hand) == 0 {
			hand = append(hand, deck...)
			r.Shuffle(len(hand), func(i, j int) { hand[i], hand[j] = hand[j], hand[i] })
		}
		kind := hand[0]
		hand = hand[1:]
		it := admissionItem{due: t, get: -1}
		// Keys at least two seconds old have long settled at this load, even
		// when a slow host phase builds a backlog.
		settled := 0
		for settled < len(newKeys) && offs[newKeys[settled]] <= t-2*time.Second {
			settled++
		}
		// Reads target submissions made at least 100 ms earlier.
		readable := 0
		for readable < len(subs) && offs[readable] <= t-100*time.Millisecond {
			readable++
		}
		switch {
		case kind == "repeat" && settled > 0:
			o := newKeys[r.IntN(settled)]
			it.subs = []int{add(&submission{kind: "repeat", body: subs[o].body, reps: newReps, origin: o}, t)}
		case kind == "pair":
			body := runBody("clique", map[string]int{"n": 64}, admissionStream, leaderReps, r.Uint64())
			lead := add(&submission{kind: "leader", body: body, reps: leaderReps, origin: -1}, t)
			dup := add(&submission{kind: "dup", body: body, reps: leaderReps, origin: lead}, t)
			it.subs = []int{lead, dup}
		case (kind == "status" || kind == "trace") && readable > 0:
			it.get = len(gets)
			gets = append(gets, &getReq{target: r.IntN(readable), path: kind})
		default:
			// A new key; also what a repeat or read becomes before anything
			// it could target exists.
			body := runBody("clique", map[string]int{"n": 64}, admissionStream, newReps, r.Uint64())
			i := add(&submission{kind: "new", body: body, reps: newReps, origin: -1}, t)
			newKeys = append(newKeys, i)
			it.subs = []int{i}
		}
		items = append(items, it)
	}
	return subs, gets, items
}

// driveAdmission plays the schedule open-loop on two sender goroutines
// (items alternate between them), each sending at its items' due times
// whatever the previous response's latency. A leader and its duplicate go
// back to back on one sender, so the duplicate arrives while the leader's
// run is still in flight.
func driveAdmission(d *loadGen) error {
	// Warm-up: a few tiny jobs on a throwaway seed stream.
	wr := rand.New(rand.NewPCG(d.rng.Uint64(), 1))
	for i := 0; i < 20; i++ {
		s := &submission{body: runBody("clique", map[string]int{"n": 64}, admissionStream, newReps, wr.Uint64())}
		s.do(d.c, d.base)
		if s.err != nil {
			return s.err
		}
	}
	subs, gets, items := planAdmission(d.rng, d.seconds)
	d.subs, d.gets = subs, gets
	if err := d.onStart(); err != nil {
		return err
	}
	d.start = time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < d.w.clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(items); i += d.w.clients {
				it := items[i]
				due := d.start.Add(it.due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				for _, si := range it.subs {
					s := subs[si]
					s.due = due
					s.do(d.c, d.base)
					close(s.ready)
				}
				if it.get >= 0 {
					gr := gets[it.get]
					gr.due = due
					target := subs[gr.target]
					select {
					case <-target.ready:
						suffix := ""
						if gr.path == "trace" {
							suffix = "/trace"
						}
						gr.path = "/v1/runs/" + target.id + suffix
						gr.do(d.c, d.base)
					case <-time.After(5 * time.Second):
						gr.err = errors.New("the read's target submission had no response after 5s")
					}
				}
			}
		}(g)
	}
	wg.Wait()
	d.end = time.Now()
	return nil
}

// parseCell decodes an SSE cell event.
func parseCell(ev sseEvent) (cellEvent, error) {
	var ce cellEvent
	err := json.Unmarshal(ev.Data, &ce)
	return ce, err
}
