package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"dynamicrumor/internal/service"
)

// Correctness: every request of the window must have succeeded (a refusal,
// 429 or 503, is a failure), every run must have completed all its
// repetitions (the clique and the dynamic families used here always
// complete), repeats and duplicates must carry their original's summary
// bytes, and a seeded sample of runs — every run, on cluster-shards — is
// recomputed by an in-process service on the local backend and
// byte-compared.

// outcome tallies a window's failures.
type outcome struct {
	attempted int
	failed    int
	notes     []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.notes) < 20 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// checkWindow validates what the daemon returned for every request.
func checkWindow(win *window) *outcome {
	o := &outcome{}
	d := win.d
	summaries := make([]json.RawMessage, len(d.subs))
	for i, s := range d.subs {
		o.attempted++
		if s.err != nil {
			o.fail("submission %d: %v", i, s.err)
			continue
		}
		v, ok := win.jobs[s.id]
		if !ok {
			o.fail("job %s missing from the listing", s.id)
			continue
		}
		if v.State != "done" {
			o.fail("job %s settled %s: %s", s.id, v.State, v.Error)
			continue
		}
		if err := checkSummary(v.Summary, s.reps); err != nil {
			o.fail("job %s: %v", s.id, err)
			continue
		}
		summaries[i] = v.Summary
		if s.origin >= 0 && summaries[s.origin] != nil && !bytes.Equal(v.Summary, summaries[s.origin]) {
			o.fail("%s job %s: summary differs from its original %s", s.kind, s.id, d.subs[s.origin].id)
		}
	}
	for _, g := range d.gets {
		o.attempted++
		if g.err != nil {
			o.fail("read %s: %v", g.path, g.err)
		}
	}
	for _, sw := range d.sweeps {
		o.attempted++
		if sw.err != nil {
			o.fail("sweep %s: %v", sw.kind, sw.err)
			continue
		}
		t := sw.terminal
		if t.State != "done" || t.Settled != sw.cells || t.Total != sw.cells || len(sw.events) != sw.cells {
			o.fail("sweep %s %s: state %s, %d/%d cells settled, %d events, want %d", sw.kind, sw.id, t.State, t.Settled, t.Total, len(sw.events), sw.cells)
		}
		if sw.networks > 0 && t.SharedNetworks != sw.networks {
			o.fail("sweep %s %s: %d shared networks, want %d", sw.kind, sw.id, t.SharedNetworks, sw.networks)
		}
		for _, ev := range sw.events {
			ce, err := parseCell(ev)
			if err != nil {
				o.fail("sweep %s: cell event: %v", sw.id, err)
				continue
			}
			if ce.State != "done" {
				o.fail("cell %s settled %s", ce.Run, ce.State)
				continue
			}
			if err := checkSummary(ce.Summary, sw.reps); err != nil {
				o.fail("cell %s: %v", ce.Run, err)
			}
		}
	}
	return o
}

func checkSummary(raw json.RawMessage, reps int) error {
	var s runSummary
	if err := json.Unmarshal(raw, &s); err != nil {
		return fmt.Errorf("summary: %w", err)
	}
	if s.Reps != reps || s.Completed != reps {
		return fmt.Errorf("summary: %d of %d repetitions completed, want %d", s.Completed, s.Reps, reps)
	}
	return nil
}

// recheck is one run to recompute in-process.
type recheck struct {
	label   string
	body    []byte
	summary json.RawMessage
}

// recomputeSample picks the runs to recompute: all of them on
// cluster-shards (a distributed summary must be byte-identical to a
// single-node one), a seeded sample elsewhere.
func recomputeSample(w *workload, win *window, seed uint64) []recheck {
	var all []recheck
	for _, s := range win.d.subs {
		if s.kind == "repeat" || s.kind == "dup" {
			continue // checked against their original above
		}
		if v, ok := win.jobs[s.id]; ok && v.State == "done" {
			all = append(all, recheck{label: s.id, body: s.body, summary: v.Summary})
		}
	}
	for _, sw := range win.d.sweeps {
		for _, ev := range sw.events {
			ce, err := parseCell(ev)
			if err != nil {
				continue
			}
			v, ok := win.jobs[ce.Run]
			if !ok || v.State != "done" {
				continue
			}
			body, _ := json.Marshal(map[string]any{"scenario": v.Scenario, "reps": v.Reps, "seed": v.Seed})
			all = append(all, recheck{label: ce.Run, body: body, summary: ce.Summary})
		}
	}
	if w.cluster {
		return all
	}
	k := map[string]int{"dense-ensemble": 2, "dynamic-sweep": 6, "admission-mixed": 40}[w.name]
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// recompute runs the sample on an in-process single-node service and
// counts byte mismatches into o.
func recompute(sample []recheck, o *outcome) error {
	svc, err := service.New(service.Config{Budget: 2})
	if err != nil {
		return err
	}
	defer svc.Close()
	h := svc.Handler()
	ids := make([]string, len(sample))
	for i, rc := range sample {
		v, err := inProcSubmit(h, rc.body)
		if err != nil {
			return err
		}
		ids[i] = v.ID
	}
	for i, rc := range sample {
		v, err := inProcWait(h, ids[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(v.Summary, rc.summary) {
			o.fail("run %s: summary differs from the single-node in-process recomputation", rc.label)
		}
	}
	return nil
}

// sameSummaries byte-compares the traced window's summaries with the
// untraced window's: the two windows send identical requests, so every key
// must map to identical bytes.
func sameSummaries(a, b *window, o *outcome) {
	byKey := make(map[string]json.RawMessage)
	for _, v := range a.jobs {
		if v.State == "done" {
			byKey[v.Key] = v.Summary
		}
	}
	for _, v := range b.jobs {
		if want, ok := byKey[v.Key]; ok && v.State == "done" && !bytes.Equal(want, v.Summary) {
			o.fail("run %s: traced summary differs from the untraced window's", v.ID)
		}
	}
}
