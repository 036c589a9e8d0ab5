package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Deploying rumord the way it runs in production: a durable single node
// (run ledger and disk cache on), or a durable coordinator with two worker
// processes. Every process is a child of the benchmark, killed if the
// benchmark dies, and stopped and reaped before the benchmark exits.

// clusterShard is the coordinator's -shard: repetitions per lease.
const clusterShard = 20

// proc is one rumord child process.
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{}
}

func startProc(bin, name, logPath string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop asks the process to shut down gracefully and kills it if it does not
// within the grace period; it returns once the process has been reaped.
func (p *proc) stop() {
	if p.exited() {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// deployment is one running system under test.
type deployment struct {
	base  string   // service base URL
	procs []*proc  // coordinator or single node first
	debug []string // pprof base URLs, one per process (traced runs only)
}

func (d *deployment) stop() {
	// Workers first, so the coordinator does not log their lapse.
	for i := len(d.procs) - 1; i >= 0; i-- {
		d.procs[i].stop()
	}
}

func (d *deployment) pids() []int {
	out := make([]int, len(d.procs))
	for i, p := range d.procs {
		out[i] = p.cmd.Process.Pid
	}
	return out
}

// freePort reserves an ephemeral loopback port and releases it for the
// child to bind.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// probeClient is the set-up prober's own client: no keep-alive, so polling
// readiness never holds one of the load generator's connections.
var probeClient = &http.Client{
	Timeout:   2 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

// deploy starts the system under test in dir and returns it with its set-up
// time: from the first process launch until /healthz answers, and for a
// cluster until both workers have registered.
func deploy(bin, dir string, cluster, debug bool) (*deployment, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	d := &deployment{base: fmt.Sprintf("http://127.0.0.1:%d", port)}
	debugArgs := func() ([]string, error) {
		if !debug {
			return nil, nil
		}
		dp, err := freePort()
		if err != nil {
			return nil, err
		}
		d.debug = append(d.debug, fmt.Sprintf("http://127.0.0.1:%d", dp))
		return []string{"-debug-addr", fmt.Sprintf("127.0.0.1:%d", dp)}, nil
	}
	args := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-state-dir", filepath.Join(dir, "state"),
		"-cache-dir", filepath.Join(dir, "cache"),
	}
	if cluster {
		// As scripts/cluster_smoke.sh deploys it: a short lease TTL and a
		// tight idle poll, plus a small shard so a run is many leases.
		args = append(args, "-cluster", "-lease-ttl", "2s", "-poll", "25ms", "-shard", strconv.Itoa(clusterShard))
	} else {
		args = append(args, "-budget", "2")
	}
	extra, err := debugArgs()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	p, err := startProc(bin, "rumord", filepath.Join(dir, "rumord.log"), append(args, extra...)...)
	if err != nil {
		return nil, 0, err
	}
	d.procs = append(d.procs, p)
	fail := func(err error) (*deployment, time.Duration, error) {
		d.stop()
		return nil, 0, fmt.Errorf("%w\n%s", err, tailLog(filepath.Join(dir, "rumord.log")))
	}
	if err := waitReady(d, func() bool {
		resp, err := probeClient.Get(d.base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}); err != nil {
		return fail(err)
	}
	if cluster {
		for i := 1; i <= 2; i++ {
			name := fmt.Sprintf("w%d", i)
			extra, err := debugArgs()
			if err != nil {
				return fail(err)
			}
			wargs := append([]string{"-worker", "-join", d.base, "-budget", "1", "-name", name}, extra...)
			w, err := startProc(bin, name, filepath.Join(dir, name+".log"), wargs...)
			if err != nil {
				return fail(err)
			}
			d.procs = append(d.procs, w)
		}
		if err := waitReady(d, func() bool {
			m, err := scrapeJSON(probeClient, d.base)
			return err == nil && m.Cluster != nil && m.Cluster.Workers == 2
		}); err != nil {
			return fail(err)
		}
	}
	return d, time.Since(t0), nil
}

// waitReady polls ready every 100 µs until it holds, a process dies, or 30 s
// pass. The tight poll keeps the set-up time's quantization far below the
// few milliseconds rumord takes to start.
func waitReady(d *deployment, ready func() bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for !ready() {
		for _, p := range d.procs {
			if p.exited() {
				return fmt.Errorf("%s exited during set-up", p.name)
			}
		}
		if time.Now().After(deadline) {
			return errors.New("system under test not ready after 30s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

func tailLog(path string) string {
	data, _ := os.ReadFile(path)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

func scrapeJSON(c *http.Client, base string) (metricsDoc, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return metricsDoc{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return metricsDoc{}, err
	}
	return parseMetricsJSON(data)
}

func scrapeProm(c *http.Client, base string) ([]promSample, error) {
	req, _ := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parsePrometheus(resp.Body)
}

// cpuProfile fetches a CPU profile of the given length from one process's
// pprof listener.
func cpuProfile(ctx context.Context, debugBase string, seconds int) (*profile, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", debugBase, seconds), nil)
	if err != nil {
		return nil, err
	}
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("profile: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return parseProfile(data)
}

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc times; 100 on every Linux
// architecture Go supports.
const clockTicks = 100

// procHWM returns a process's peak resident set (VmHWM) in bytes.
func procHWM(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fs := strings.Fields(line)
			if len(fs) >= 2 {
				kb, err := strconv.ParseInt(fs[1], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, errors.New("no VmHWM")
}

// cpuTotal sums the CPU time of the deployment's processes.
func (d *deployment) cpuTotal() (time.Duration, error) {
	var t time.Duration
	for _, pid := range d.pids() {
		c, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		t += c
	}
	return t, nil
}

// peakRSS is the largest VmHWM over the deployment's processes.
func (d *deployment) peakRSS() (int64, error) {
	var peak int64
	for _, pid := range d.pids() {
		h, err := procHWM(pid)
		if err != nil {
			return 0, err
		}
		if h > peak {
			peak = h
		}
	}
	return peak, nil
}

// getJSON fetches one JSON document.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.Unmarshal(data, v)
}
