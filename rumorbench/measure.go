package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// window is one measured window against one deployment: what the load
// generator did, what the daemon reported about it, and (traced) the
// daemon's CPU profiles and run timelines.
type window struct {
	d          *loadGen
	jobs       map[string]jobView // every job the daemon lists after the window
	promBefore []promSample
	promAfter  []promSample
	metBefore  metricsDoc
	metAfter   metricsDoc
	cpu        time.Duration // system-under-test CPU over the window
	rss        int64         // largest VmHWM over its processes
	cpuLayers  map[string]int64
	spans      []span // harvested run timelines (traced)
}

// measure drives one window of workload w against dep.
func measure(w *workload, dep *deployment, seed uint64, seconds int, traced bool) (*window, error) {
	c := newLoadClient(w.conns)
	defer c.CloseIdleConnections()
	win := &window{}
	d := &loadGen{w: w, c: c, base: dep.base, rng: newRNG(seed, w.name), seconds: seconds, cpu: dep.cpuTotal}
	win.d = d

	var profWG sync.WaitGroup
	var profMu sync.Mutex
	var profErr error
	profCtx, cancelProf := context.WithCancel(context.Background())
	defer cancelProf()
	win.cpuLayers = make(map[string]int64)
	var cpu0 time.Duration
	var err error
	d.onStart = func() error {
		if win.promBefore, err = scrapeProm(c, dep.base); err != nil {
			return err
		}
		if win.metBefore, err = scrapeJSON(c, dep.base); err != nil {
			return err
		}
		if cpu0, err = dep.cpuTotal(); err != nil {
			return err
		}
		if traced {
			for _, dbg := range dep.debug {
				profWG.Add(1)
				go func(dbg string) {
					defer profWG.Done()
					p, err := cpuProfile(profCtx, dbg, seconds)
					profMu.Lock()
					defer profMu.Unlock()
					if err != nil {
						profErr = err
						return
					}
					for l, ns := range cpuByLayer(p) {
						win.cpuLayers[l] += ns
					}
				}(dbg)
			}
		}
		return nil
	}
	if err := w.drive(d); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	// Drain: an open loop ends with runs still in flight.
	if err := win.collectJobs(c, dep.base); err != nil {
		return nil, err
	}
	for _, s := range d.subs {
		if v, ok := win.jobs[s.id]; ok {
			if fin, err := parseTime(v.FinishedAt); err == nil && fin.After(d.end) {
				d.end = fin
			}
		}
	}
	cpu1, err := dep.cpuTotal()
	if err != nil {
		return nil, err
	}
	win.cpu = cpu1 - cpu0
	if win.rss, err = dep.peakRSS(); err != nil {
		return nil, err
	}
	if win.promAfter, err = scrapeProm(c, dep.base); err != nil {
		return nil, err
	}
	if win.metAfter, err = scrapeJSON(c, dep.base); err != nil {
		return nil, err
	}
	if traced {
		if err := win.harvestTraces(c, dep.base); err != nil {
			return nil, err
		}
		profWG.Wait()
		if profErr != nil {
			return nil, profErr
		}
	}
	return win, nil
}

// collectJobs lists the daemon's jobs until none the window created is still
// queued or running.
func (win *window) collectJobs(c *http.Client, base string) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var list struct {
			Runs []jobView `json:"runs"`
		}
		if err := getJSON(c, base+"/v1/runs", &list); err != nil {
			return err
		}
		win.jobs = make(map[string]jobView, len(list.Runs))
		pending := 0
		for _, v := range list.Runs {
			win.jobs[v.ID] = v
			if !v.terminal() {
				pending++
			}
		}
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d jobs still unsettled 60s after the window", pending)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// executedIDs lists the jobs of the window that ran (not cache hits, not
// coalesced followers): submissions first, then sweep cells.
func (win *window) executedIDs() []string {
	var out []string
	for _, s := range win.d.subs {
		if v, ok := win.jobs[s.id]; ok && !v.CacheHit && v.CoalescedWith == "" && s.kind != "dup" && s.kind != "repeat" {
			out = append(out, s.id)
		}
	}
	for _, sw := range win.d.sweeps {
		for _, ev := range sw.events {
			if ce, err := parseCell(ev); err == nil {
				out = append(out, ce.Run)
			}
		}
	}
	return out
}

// harvestTraces fetches the timeline of every run the window executed.
func (win *window) harvestTraces(c *http.Client, base string) error {
	next := 1
	for _, id := range win.executedIDs() {
		resp, err := c.Get(base + "/v1/runs/" + id + "/trace")
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("trace %s: %s", id, resp.Status)
		}
		spans, err := parseTrace(data, next)
		if err != nil {
			return fmt.Errorf("trace %s: %w", id, err)
		}
		next += len(spans)
		win.spans = append(win.spans, spans...)
	}
	sort.SliceStable(win.spans, func(i, j int) bool { return win.spans[i].Start.Before(win.spans[j].Start) })
	return nil
}
