package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call (the program itself is not instrumented).
// Spans of one op share Op; set-up spans carry Op -1.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// tracer keeps a traced run's spans in memory; write dumps them when the
// run ends, so recording costs one clock read and one append per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// record times f as a span and returns its duration.
func (t *tracer) record(name string, op int, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	t.add(name, op, start, d)
	return d
}

func (t *tracer) add(name string, op int, start time.Time, d time.Duration) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, StartNs: start.Sub(t.t0).Nanoseconds(), DurNs: d.Nanoseconds()})
	t.mu.Unlock()
}

// durations returns every recorded duration of the named span, in ms.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.DurNs)/1e6)
		}
	}
	return out
}

// p50 is the median duration of the named span in ms (0 if never recorded).
func (t *tracer) p50(name string) float64 { return median(t.durations(name)) }

// round is the better quartile, over the rounds of the phase that began at
// from and lasted wall, of f (median or mean) of the named span's durations
// in each round (ms): the traced counterpart of the end-to-end latency
// figures.
func (t *tracer) round(name string, from time.Time, wall time.Duration, f func([]float64) float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	byRound := make([][]float64, rounds)
	off := from.Sub(t.t0).Nanoseconds()
	for _, s := range t.spans {
		if s.Name == name {
			r := min(max(int((s.StartNs-off)*rounds/wall.Nanoseconds()), 0), rounds-1)
			byRound[r] = append(byRound[r], float64(s.DurNs)/1e6)
		}
	}
	var vals []float64
	for _, d := range byRound {
		if len(d) > 0 {
			vals = append(vals, f(d))
		}
	}
	if len(vals) == 0 {
		return 0
	}
	return betterQuartile(vals, false)
}

// write dumps the spans plus a per-name summary as JSON into dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	type summary struct {
		Count int     `json:"count"`
		P50Ms float64 `json:"p50_ms"`
		SumMs float64 `json:"sum_ms"`
	}
	byName := map[string][]float64{}
	for _, s := range t.spans {
		byName[s.Name] = append(byName[s.Name], float64(s.DurNs)/1e6)
	}
	sums := map[string]summary{}
	for name, d := range byName {
		var total float64
		for _, v := range d {
			total += v
		}
		sums[name] = summary{Count: len(d), P50Ms: median(d), SumMs: total}
	}
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Summary  map[string]summary `json:"summary"`
		Spans    []span             `json:"spans"`
	}{workload, seed, sums, t.spans}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
