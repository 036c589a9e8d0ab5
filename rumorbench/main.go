// Command rumorbench is the repository's benchmark: it deploys rumord as it
// runs in production — a durable single node, or a durable coordinator with
// two workers — drives one of four seeded workloads against it from a
// single client process, checks every result, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) as one JSON line.
//
//	rumorbench -workload dense-ensemble -seed 1 -seconds 10 -trace 0
//
// It is normally started through run.sh, which builds rumord and this
// program from the checkout first. See README.md for the metric table.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupReps is how many times a run deploys the system under test; setup_s
// is the median. The last deployment serves the measured window.
const setupReps = 21

func main() {
	os.Exit(run())
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	root     string // repository checkout
	bin      string // directory holding the rumord binary
	out      string // build and results directory
}

func run() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced window")
	flag.StringVar(&o.root, "root", ".", "repository checkout")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding the rumord binary")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for run state and results")
	flag.Parse()
	if err := bench(o); err != nil {
		fmt.Fprintln(os.Stderr, "rumorbench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func bench(o options) error {
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be >= 1, got %d", o.seconds)
	}
	if n := runtime.NumCPU(); w.clients > n || w.conns > n {
		return fmt.Errorf("%s needs %d load goroutines and %d connections, more than nproc=%d", w.name, w.clients, w.conns, n)
	}
	bin := filepath.Join(o.bin, "rumord")
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("rumord binary: %w", err)
	}
	source := sourceDigest(o.root, o.out)
	env := stampEnv(o, w, source)

	work := filepath.Join(o.out, "run", fmt.Sprintf("%s-%d-%d", w.name, o.seed, o.trace))
	if err := os.RemoveAll(work); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	// Every deployment is stopped before returning, and on SIGINT/SIGTERM.
	var liveMu sync.Mutex
	var live []*deployment
	keep := func(d *deployment) {
		liveMu.Lock()
		live = append(live, d)
		liveMu.Unlock()
	}
	stopAll := func() {
		liveMu.Lock()
		defer liveMu.Unlock()
		for _, d := range live {
			d.stop()
		}
		live = nil
	}
	defer stopAll()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.Exit(1)
	}()

	// Flush the page cache's pending writes (an earlier run's deleted state
	// and cache directories) first, so set-up's own fsyncs do not queue
	// behind them.
	syscall.Sync()
	var setups []float64
	var dep *deployment
	for i := 0; i < setupReps; i++ {
		d, t, err := deploy(bin, filepath.Join(work, fmt.Sprintf("deploy%d", i)), w.cluster, false)
		if err != nil {
			return err
		}
		setups = append(setups, t.Seconds())
		if i < setupReps-1 {
			d.stop()
		} else {
			dep = d
			keep(d)
		}
	}
	win, err := measure(w, dep, o.seed, o.seconds, false)
	if err != nil {
		return err
	}
	stopAll()

	out := checkWindow(win)
	checkExpected(w, win, out)
	if err := recompute(recomputeSample(w, win, o.seed), out); err != nil {
		return err
	}
	e2e := endToEndMetrics(w, win, setups, out)
	metrics := make(map[string]metricValue)
	var layers metricSet
	if o.trace == 0 {
		for _, def := range endToEnd {
			metrics[def.name] = metricValue{e2e[def.name], def.unit}
		}
	} else {
		tdep, _, err := deploy(bin, filepath.Join(work, "traced"), w.cluster, true)
		if err != nil {
			return err
		}
		keep(tdep)
		twin, err := measure(w, tdep, o.seed, o.seconds, true)
		if err != nil {
			return err
		}
		stopAll()
		tout := checkWindow(twin)
		checkExpected(w, twin, tout)
		sameSummaries(win, twin, tout)
		out.attempted += tout.attempted
		out.failed += tout.failed
		out.notes = append(out.notes, tout.notes...)
		layers, err = layerBench(o.seed, work)
		if err != nil {
			return err
		}
		for k, v := range harvested(twin) {
			layers[k] = v
		}
		te2e := endToEndMetrics(w, twin, nil, tout)
		layers["bench.tracing_overhead_ratio"] = te2e["reps_per_s"] / e2e["reps_per_s"]
		for _, k := range []string{"reps_per_s", "jobs_per_s", "settle_p50_ms", "submit_p50_ms", "peak_rss_mib", "settle_tail_ms", "submit_tail_ms", "sweep_wall_s", "error_rate"} {
			layers[k] = e2e[k]
		}
		for _, def := range perLayerDefs {
			metrics[def.name] = metricValue{layers[def.name], def.unit}
		}
		if err := writeTrace(o, w, twin); err != nil {
			return err
		}
	}
	if err := checkExact(o, w, source, exactCounts(w, win, layers), out); err != nil {
		return err
	}

	for name, mv := range metrics {
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			out.fail("metric %s is not finite", name)
			mv.Value = 0
			metrics[name] = mv
		}
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}
	info := map[string]any{
		"env":              env,
		"tail_percentile":  e2e["tail_percentile"],
		"tail_samples":     e2e["samples"],
		"settle_p50_ms":    e2e["settle_p50_ms"],
		"cycles":           len(win.d.cycles),
		"cycle_reps_per_s": cycleSeries(win.d.cycles),
		"window_s":         win.d.end.Sub(win.d.start).Seconds(),
		"setup_s_all":      setups,
		"setup_s_spread":   spread(setups),
		"busy_share":       busyShare(win),
		"notes":            out.notes,
	}
	for _, n := range out.notes {
		fmt.Fprintln(os.Stderr, "rumorbench: FAIL:", n)
	}
	if err := saveResult(o, w, info, res); err != nil {
		return err
	}
	infoLine, _ := json.Marshal(info)
	resLine, _ := json.Marshal(res)
	fmt.Println(string(infoLine))
	fmt.Println(string(resLine))
	return nil
}

// busyShare is the share of the window during which a job of the window was
// running on the daemon (the union of their started→finished intervals): a
// closed loop's idle remainder is the client's own turnaround.
func busyShare(win *window) float64 {
	var ivs []interval
	for _, v := range win.jobs {
		st, err1 := parseTime(v.StartedAt)
		fin, err2 := parseTime(v.FinishedAt)
		if err1 == nil && err2 == nil {
			ivs = append(ivs, interval{st, fin})
		}
	}
	d := win.d
	return unionLength(ivs, d.start, d.end).Seconds() / d.end.Sub(d.start).Seconds()
}

// stampEnv records the environment a result was measured in.
func stampEnv(o options, w *workload, source string) map[string]any {
	env := map[string]any{
		"workload":           w.name,
		"seed":               o.seed,
		"seconds":            o.seconds,
		"trace":              o.trace,
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"go":                 runtime.Version(),
		"cpu_model":          cpuModel(),
		"l2":                 readTrim("/sys/devices/system/cpu/cpu0/cache/index2/size"),
		"l3":                 readTrim("/sys/devices/system/cpu/cpu0/cache/index3/size"),
		"commit":             commit(o.root),
		"source":             source,
		"clients":            w.clients,
		"conns":              w.conns,
		"offered_rate_per_s": w.rate,
		"box_speed":          boxSpeed(),
	}
	if w.cluster {
		env["cluster"] = map[string]any{"workers": 2, "worker_budget": 1, "shard": clusterShard, "poll": "25ms"}
	}
	return env
}

// boxSpeed times fixed loops on this machine — an ALU loop, and dependent
// random walks over 1 MiB (within the per-core L2) and 16 MiB (within the
// L3 when neighbours leave it alone), the access pattern of the simulation
// kernels — so a result measured while the shared host ran slow can be
// recognized. All are in ns per step.
func boxSpeed() map[string]float64 {
	const steps = 20_000_000
	t0 := time.Now()
	x := uint64(1)
	for i := uint64(0); i < steps; i++ {
		x = x*6364136223846793005 + i
	}
	out := map[string]float64{"alu_ns": float64(time.Since(t0).Nanoseconds()) / steps}
	for _, mib := range []int{1, 16} {
		next := make([]uint32, mib<<18)
		perm := rand.New(rand.NewPCG(1, 2)).Perm(len(next))
		for i := range perm {
			next[perm[i]] = uint32(perm[(i+1)%len(perm)])
		}
		const walk = 1_000_000
		t0 = time.Now()
		p := uint32(0)
		for i := 0; i < walk; i++ {
			p = next[p]
		}
		out[fmt.Sprintf("walk_%dmib_ns", mib)] = float64(time.Since(t0).Nanoseconds()) / walk
		x ^= uint64(p)
	}
	boxSink = x
	return out
}

// boxSink keeps boxSpeed's loops from being optimized away.
var boxSink uint64

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

func readTrim(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// commit names the checked-out revision when the checkout is itself a git
// repository; sourceDigest identifies the code either way. The ceiling
// keeps git from searching the checkout's parent directories.
func commit(root string) string {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "none"
	}
	cmd := exec.Command("git", "-C", abs, "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under root, skipping
// the build directory and hidden directories.
func sourceDigest(root, out string) string {
	h := sha256.New()
	absOut, _ := filepath.Abs(out)
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			abs, _ := filepath.Abs(path)
			if path != root && (strings.HasPrefix(d.Name(), ".") || abs == absOut) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkExact compares the run's exact counts with an earlier run of the same
// workload, seed and window on the same source, recorded under out/exact;
// any difference fails the run.
func checkExact(o options, w *workload, source string, counts map[string]float64, out *outcome) error {
	dir := filepath.Join(o.out, "exact")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%d-%s.json", w.name, o.seed, o.seconds, source))
	prev := make(map[string]float64)
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	for _, k := range sortedKeys(counts) {
		if p, ok := prev[k]; ok && p != counts[k] {
			out.fail("exact count %s = %v, an earlier run with this seed had %v", k, counts[k], p)
		}
		prev[k] = counts[k]
	}
	data, _ := json.Marshal(prev)
	return os.WriteFile(path, data, 0o644)
}

// saveResult keeps each run's full record under out/results.
func saveResult(o options, w *workload, info map[string]any, res result) error {
	dir := filepath.Join(o.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, _ := json.MarshalIndent(map[string]any{"info": info, "result": res}, "", "  ")
	name := fmt.Sprintf("%s-%d-trace%d-%s.json", w.name, o.seed, o.trace, time.Now().UTC().Format("20060102T150405.000"))
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// writeTrace writes the traced window's spans — the client's own and the
// daemon's harvested timelines — and their self-time table when the run
// exits.
func writeTrace(o options, w *workload, win *window) error {
	dir := filepath.Join(o.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	client := clientSpans(win.d, len(win.spans)+1)
	// Each request's client root shares the daemon's trace ID and parents
	// the daemon's root spans for it; a sweep's root parents its cells'.
	roots := make(map[string]int)
	for _, c := range client {
		if c.Parent == 0 {
			roots[c.Trace] = c.ID
		}
	}
	for i := range win.spans {
		sp := &win.spans[i]
		if sp.Parent != 0 {
			continue
		}
		tr := sp.Trace
		if dot := strings.IndexByte(tr, '.'); dot >= 0 {
			tr = tr[:dot]
		}
		sp.Parent = roots[tr]
	}
	spans := append(client, win.spans...)
	self := make(map[string]float64)
	for name, d := range selfTimes(spans) {
		self[name] = ms(d)
	}
	doc := map[string]any{
		"workload":        w.name,
		"seed":            o.seed,
		"self_ms":         self,
		"cpu_ns_by_layer": win.cpuLayers,
		"spans":           spans,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.json", w.name, o.seed)), data, 0o644)
}

// clientSpans renders the load generator's requests as spans: one root
// per submission or sweep, under the daemon's trace ID for it, with its
// POST and the wait for settlement or the SSE stream as children.
func clientSpans(d *loadGen, firstID int) []span {
	var out []span
	add := func(s span) int {
		s.ID = firstID + len(out)
		out = append(out, s)
		return s.ID
	}
	for _, s := range d.subs {
		if s.err != nil {
			continue
		}
		tr := "tr-" + s.id
		end := s.recv
		if !s.settledSeen.IsZero() {
			end = s.settledSeen
		}
		root := add(span{Trace: tr, Name: "client.job", Start: s.due, End: end})
		add(span{Trace: tr, Parent: root, Name: "client.submit", Start: s.sent, End: s.recv})
		if !s.settledSeen.IsZero() {
			add(span{Trace: tr, Parent: root, Name: "client.wait", Start: s.recv, End: s.settledSeen})
		}
	}
	for _, sw := range d.sweeps {
		if sw.err != nil {
			continue
		}
		tr := "tr-" + sw.id
		root := add(span{Trace: tr, Name: "client.sweep", Start: sw.sent, End: sw.end})
		add(span{Trace: tr, Parent: root, Name: "client.submit", Start: sw.sent, End: sw.recv})
		add(span{Trace: tr, Parent: root, Name: "client.sse", Start: sw.recv, End: sw.end})
	}
	return out
}
