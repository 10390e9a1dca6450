package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"halotis/client"
	"halotis/internal/cellib"
	"halotis/internal/circuits"
	"halotis/internal/netfmt"
	"halotis/internal/service"
)

func parseConcList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad client count %q in -serveconc", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-serveconc lists no client counts")
	}
	return out, nil
}

// toggleStimulus drives every listed input with a staggered rise/fall
// pair; variant perturbs the edge times so distinct variants hash to
// distinct result-cache keys (variant 0 reproduces the warm-up request).
// The offset must stay collision-free across every sweep of one workload,
// so the variant feeds in unwrapped — callers allocate variants from one
// monotonic counter per workload.
func toggleStimulus(inputs []string, variant int) client.Stimulus {
	dt := 0.0001 * float64(variant)
	st := client.Stimulus{}
	for i, in := range inputs {
		st[in] = client.InputWave{Edges: []client.Edge{
			{T: 2 + 0.37*float64(i%16) + dt, Rising: true, Slew: 0.2},
			{T: 12 + 0.37*float64(i%16) + dt, Rising: false, Slew: 0.2},
		}}
	}
	return st
}

func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx].Nanoseconds()) / 1e3
}

// serveExperiment stands up an in-process halotisd (the production handler
// over httptest's real TCP listener), uploads each workload circuit once,
// then measures three paths: "unique" — concurrent clients firing
// distinct simulate-by-ID requests (the compiled-circuit cache and warm
// engine pools carry the load; every request runs the kernel); "repeat" —
// the same clients re-sending one identical request (the result cache
// answers without a kernel run); and the batch endpoint fanning many jobs
// per request across the worker pool. It reports requests/sec, p50/p99
// latency, batch jobs/sec and the final cache + result-cache hit rates.
func serveExperiment(lib *cellib.Library, concFlag string, runs int) (string, error) {
	if runs < 1 {
		return "", fmt.Errorf("-serveruns must be >= 1, got %d", runs)
	}
	concs, err := parseConcList(concFlag)
	if err != nil {
		return "", err
	}

	// Size the queue for the largest client burst: on a low-CPU machine the
	// default depth (4x workers) could 503 a full-concurrency volley, and
	// the experiment measures latency, not admission control.
	maxConc := 0
	for _, c := range concs {
		if c > maxConc {
			maxConc = c
		}
	}
	svc := service.New(service.Config{QueueDepth: 2 * maxConc})
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		svc.Close()
	}()
	cl := client.New(ts.URL)
	ctx := context.Background()

	// Workloads: the tiny c17 (per-request overhead dominated) and the 4x4
	// array multiplier (kernel work dominated).
	type workload struct {
		name string
		text string
		fmt  string
	}
	mult, err := circuits.Multiplier(lib, 4, 4)
	if err != nil {
		return "", err
	}
	var multText strings.Builder
	if err := netfmt.WriteCircuit(&multText, mult); err != nil {
		return "", err
	}
	workloads := []workload{
		{"c17", netfmt.C17Bench(), "bench"},
		{"mult4x4", multText.String(), "net"},
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Service load test (%d requests/client, %s, %d workers)\n",
		runs, runtime.Version(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "%-10s %-7s %8s %8s %10s %12s %10s %10s\n",
		"circuit", "mode", "gates", "clients", "requests", "req/s", "p50(us)", "p99(us)")

	// nextVariant allocates result-cache-distinct stimulus variants; it
	// advances across sweeps so no "unique" request ever repeats an
	// earlier sweep's key (which the result cache would serve without a
	// kernel run, contaminating the measurement). Reset per workload.
	nextVariant := 1

	sweep := func(wl workload, up *client.UploadResponse, mode string, conc int) error {
		latencies := make([][]time.Duration, conc)
		errs := make([]error, conc)
		base := nextVariant
		nextVariant += conc * runs
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < conc; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				lat := make([]time.Duration, 0, runs)
				for i := 0; i < runs; i++ {
					variant := 0 // "repeat": every request identical
					if mode == "unique" {
						variant = base + g*runs + i
					}
					req := client.SimRequest{
						Circuit: up.ID,
						Request: client.Request{TEnd: 30, Stimulus: toggleStimulus(up.Inputs, variant)},
					}
					t0 := time.Now()
					if _, err := cl.Simulate(ctx, req); err != nil {
						errs[g] = err
						return
					}
					lat = append(lat, time.Since(t0))
				}
				latencies[g] = lat
			}(g)
		}
		wg.Wait()
		wall := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("%s %s @ %d clients: %w", wl.name, mode, conc, err)
			}
		}

		var all []time.Duration
		for _, lat := range latencies {
			all = append(all, lat...)
		}
		slices.Sort(all)
		fmt.Fprintf(&b, "%-10s %-7s %8d %8d %10d %12.0f %10.0f %10.0f\n",
			wl.name, mode, up.Gates, conc, len(all), float64(len(all))/wall.Seconds(),
			percentile(all, 0.50), percentile(all, 0.99))
		return nil
	}

	for _, wl := range workloads {
		nextVariant = 1 // keys are per-circuit; restart the space per workload
		up, err := cl.UploadCircuit(ctx, client.UploadRequest{Name: wl.name, Format: wl.fmt, Netlist: wl.text})
		if err != nil {
			return "", fmt.Errorf("upload %s: %w", wl.name, err)
		}

		// One warm-up request per workload primes the engine pools.
		_, err = cl.Simulate(ctx, client.SimRequest{
			Circuit: up.ID,
			Request: client.Request{TEnd: 30, Stimulus: toggleStimulus(up.Inputs, 0)},
		})
		if err != nil {
			return "", fmt.Errorf("warm-up %s: %w", wl.name, err)
		}

		for _, mode := range []string{"unique", "repeat"} {
			for _, conc := range concs {
				if err := sweep(wl, up, mode, conc); err != nil {
					return "", err
				}
			}
		}

		// Batch fan-out: one client, each request carrying jobsPerBatch
		// distinct jobs spread across the worker pool. A dedicated daemon
		// instance isolates the measurement — its queue's in-flight
		// high-water mark then describes batch overlap alone, not residue
		// of the concurrency sweeps above.
		bsvc := service.New(service.Config{})
		bts := httptest.NewServer(bsvc.Handler())
		bcl := client.New(bts.URL)
		bup, err := bcl.UploadCircuit(ctx, client.UploadRequest{Name: wl.name, Format: wl.fmt, Netlist: wl.text})
		if err != nil {
			bts.Close()
			bsvc.Close()
			return "", fmt.Errorf("batch upload %s: %w", wl.name, err)
		}
		const jobsPerBatch = 32
		batches := runs/4 + 1
		jobs := make([]client.Request, jobsPerBatch)
		start := time.Now()
		var batchErr error
		for n := 0; n < batches; n++ {
			for j := range jobs {
				jobs[j] = client.Request{TEnd: 30, Stimulus: toggleStimulus(bup.Inputs, nextVariant+n*jobsPerBatch+j)}
			}
			if _, err := bcl.SimulateBatch(ctx, client.BatchRequest{Circuit: bup.ID, Requests: jobs}); err != nil {
				batchErr = fmt.Errorf("batch %s: %w", wl.name, err)
				break
			}
		}
		wall := time.Since(start)
		nextVariant += batches * jobsPerBatch
		peak := bsvc.QueueStats().PeakInFlight
		bts.Close()
		bsvc.Close()
		if batchErr != nil {
			return "", batchErr
		}
		fmt.Fprintf(&b, "%-10s batch  %8d jobs x %d batches %12.0f jobs/s (peak in-flight %d)\n",
			wl.name, jobsPerBatch, batches, float64(jobsPerBatch*batches)/wall.Seconds(), peak)
	}

	cache, results := svc.CacheStats(), svc.ResultCacheStats()
	fmt.Fprintf(&b, "circuit cache: %d compiles, %d hits, %d misses (hit rate %.4f), %d engines created\n",
		cache.Compiles, cache.Hits, cache.Misses, cache.HitRate(), cache.EnginesCreated)
	fmt.Fprintf(&b, "result cache: %d hits, %d misses (hit rate %.4f), %d entries, %d evictions\n",
		results.Hits, results.Misses, results.HitRate(), results.Entries, results.Evictions)
	return b.String(), nil
}
