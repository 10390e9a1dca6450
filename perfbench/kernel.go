package main

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"halotis"
	"halotis/api"
	"halotis/internal/circ"
	"halotis/internal/netfmt"
	"halotis/internal/netlist"
	"halotis/internal/sim"
)

// kernel-large shape: one 100k-gate circuit, above the 50k-gate
// auto-partition threshold, driven by one closed-loop caller.
const (
	kernelFamily   = "random-dag"
	kernelGates    = 100_000
	kernelRequests = 8   // distinct requests, cycled through by the timed phase
	kernelVectors  = 3   // random vectors per request
	kernelSetups   = 9   // set-ups per run; setup_s is their median
	kernelMinCalls = 100 // fewest timed calls: the p90 needs 10 calls beyond it
	kernelP1Checks = 2   // requests re-run with Partitions=1 for bit identity
	kernelLayerTol = 0.15
)

func runKernelLarge(ctx context.Context, cfg config) (*outcome, error) {
	genStart := time.Now()
	text, err := familyText(kernelFamily, kernelGates)
	if err != nil {
		return nil, err
	}
	probe, err := parseText(text)
	if err != nil {
		return nil, err
	}
	ops := kernelOps(cfg.seed, inputNames(probe), kernelRequests, kernelVectors)
	out := &outcome{opDigest: digest(ops)}
	fmt.Printf("circuit: %s gates=%d inputs=%d outputs=%d; %d distinct requests of %d vectors; generated in %.2fs\n",
		probe.Name, len(probe.Gates), len(probe.Inputs), len(probe.Outputs), len(ops), kernelVectors, time.Since(genStart).Seconds())
	probe = nil

	// Set-up: netlist text in memory -> parsed circuit -> open Local session
	// (compile) -> first completed run (engine build, partition). Each
	// set-up starts from a collected heap whose free pages went back to the
	// OS, so none inherits pages or a GC pace from the one before; the last
	// one serves the timed phase.
	var setups, opens []float64
	var sess halotis.Session
	var ckt *netlist.Circuit
	for i := 0; i < kernelSetups; i++ {
		if sess != nil {
			sess.Close()
			sess, ckt = nil, nil
		}
		debug.FreeOSMemory()
		t0 := time.Now()
		if ckt, err = parseText(text); err != nil {
			return nil, err
		}
		if sess, err = halotis.NewLocal().Open(ctx, ckt); err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
		opens = append(opens, ms(time.Since(t0)))
		if _, err := sess.Run(ctx, ops[0].Req); err != nil {
			sess.Close()
			return nil, fmt.Errorf("first run: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sess.Close()

	// Timed phase: cycle the requests in a closed loop with one caller.
	first := make([]*api.Report, len(ops)) // first report of every distinct request
	var calls []call
	m := startMeter()
	start := time.Now()
	for i := 0; i < kernelMinCalls || time.Since(start) < cfg.seconds; i++ {
		c := i % len(ops)
		t0 := time.Now()
		rep, err := sess.Run(ctx, ops[c].Req)
		lat := time.Since(t0)
		m.observe()
		out.attempted++
		if err != nil {
			out.fail("call %d: %v", i, err)
			continue
		}
		calls = append(calls, call{end: time.Since(start), ms: ms(lat)})
		if first[c] == nil {
			first[c] = rep
		} else if rep.Stats != first[c].Stats {
			out.fail("request %d: stats changed between runs: %+v vs %+v", c, rep.Stats, first[c].Stats)
		}
	}
	wall := time.Since(start)
	heapMB, rt := m.finish(len(calls))

	// With one caller a round's wall time is its calls back to back, so its
	// throughput is its call count over their summed latency; counting
	// whole calls against a 4 s round would quantize it to 23 or 24 calls.
	tput, _ := figure(calls, wall, true, func(lat []float64, _ time.Duration) (float64, error) {
		return float64(len(lat)) / (sum(lat) / 1e3), nil
	})
	p50, _ := figure(calls, wall, false, percentile(0.5))
	// A round of about 23 calls cannot support a p90, so it comes from
	// every call of the phase; p99 would need 1,000 calls and copies it.
	p90, err := figure(calls, wall, false, percentile(0.9))
	if err != nil {
		return nil, err
	}
	out.e2e = []metric{
		{"setup_s", "s", median(setups)},
		{"ops_per_s", "1/s", tput},
		{"latency_p50_ms", "ms", p50},
		{"latency_p90_ms", "ms", p90},
		{"latency_p99_ms", "ms", p90},
		{"upload_p50_ms", "ms", median(opens)},
		{"heap_peak_mb", "MB", heapMB},
	}
	out.notes = append(out.notes,
		fmt.Sprintf("%d calls in %.2fs", len(calls), wall.Seconds()),
		fmt.Sprintf("set-ups (s): %.4g; session opens (ms): %.4g", setups, opens))

	// Checks that share no code with the kernel, then partition identity.
	for i, rep := range first {
		if rep == nil {
			out.fail("request %d never completed", i)
			continue
		}
		out.counts.add(rep.Stats)
		want, err := ckt.EvalBool(ops[i].Last)
		if err != nil {
			return nil, err
		}
		if bad := mismatches(rep.Outputs, want); bad > 0 {
			out.fail("request %d: %d of %d outputs differ from the zero-delay value of the last vector", i, bad, len(want))
		}
	}
	parts := 1
	if first[0] != nil {
		parts = checkPartitions(ctx, sess, ops, first, out)
	}

	out.layers = append(out.layers, rt...)
	out.layers = append(out.layers, out.counts.countMetrics()...)
	out.layers = append(out.layers, metric{"sim.partitions", "count", float64(parts)})
	if cfg.trace {
		if err := tracedKernel(ctx, cfg, text, ops, parts, p50, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func mismatches(got, want map[string]bool) int {
	bad := 0
	for name, v := range want {
		if g, ok := got[name]; !ok || g != v {
			bad++
		}
	}
	return bad
}

// checkPartitions re-runs a profiled request (reading the partition count
// the engine chose) and, for the first kernelP1Checks requests, the
// sequential kernel: Stats and Outputs must match the timed phase's bit for
// bit.
func checkPartitions(ctx context.Context, sess halotis.Session, ops []vectorOp, first []*api.Report, out *outcome) int {
	same := func(i int, what string, rep *api.Report, err error) {
		out.attempted++
		switch {
		case err != nil:
			out.fail("request %d (%s): %v", i, what, err)
		case rep.Stats != first[i].Stats || !maps.Equal(rep.Outputs, first[i].Outputs):
			out.fail("request %d (%s): report differs from the default run", i, what)
		}
	}
	req := ops[0].Req
	req.Profile = true
	rep, err := sess.Run(ctx, req)
	same(0, "profiled", rep, err)
	parts := 1
	if err == nil && rep.Profile != nil {
		parts = rep.Profile.Partitions
	}
	for i := 0; i < kernelP1Checks && i < len(ops); i++ {
		req := ops[i].Req
		req.Partitions = 1
		rep, err := sess.Run(ctx, req)
		same(i, "partitions=1", rep, err)
	}
	return parts
}

// tracedKernel repeats set-up and the timed phase through the layers'
// public functions directly, with a span around each call: parse, compile
// and partition, then per request Prepare, Engine.RunContext and
// BuildReport on engines from an EnginePool, the steps a Local session
// takes. Every run is profiled, for the partitioned kernel's counters.
func tracedKernel(ctx context.Context, cfg config, text string, ops []vectorOp, parts int, untracedP50 float64, out *outcome) error {
	tr := newTracer()
	out.tr = tr
	var ckt *netlist.Circuit
	var err error
	tr.record("netfmt.parse", -1, func() { ckt, err = netfmt.ParseCircuit(strings.NewReader(text), library()) })
	if err != nil {
		return err
	}
	var ir *circ.Compiled
	tr.record("circ.compile", -1, func() { ir = circ.Compile(ckt) })
	if parts > 1 {
		tr.record("circ.partition", -1, func() { ir.Partition(parts) })
	}
	pool := sim.NewEnginePool(ir, runtime.GOMAXPROCS(0), nil)
	profiled := func(i int) api.Request {
		req := ops[i%len(ops)].Req
		req.Profile = true
		return req
	}
	// The first call builds the pool's engine, as the untraced set-up did;
	// its spans go to a throwaway tracer.
	if _, _, err := layerCalls(ctx, newTracer(), -1, ir, pool, profiled(0)); err != nil {
		return err
	}

	var runNs, events, stalls, sends uint64
	runs := 0
	start := time.Now()
	for i := 0; i < kernelMinCalls || time.Since(start) < cfg.seconds; i++ {
		t0 := time.Now()
		rep, run, err := layerCalls(ctx, tr, i, ir, pool, profiled(i))
		tr.add("call", i, t0, time.Since(t0))
		out.attempted++
		if err != nil {
			out.fail("traced call %d: %v", i, err)
			continue
		}
		runs++
		runNs += uint64(run.Nanoseconds())
		events += rep.Stats.EventsProcessed
		if rep.Profile != nil {
			for _, w := range rep.Profile.Workers {
				stalls += w.StallWaits
				sends += w.MailboxSends
			}
		}
	}
	wall := time.Since(start)

	// Every layer figure uses the untraced phase's estimator: the
	// better-quartile round's median (mean for the layer sum).
	p := func(name string) float64 { return tr.round(name, start, wall, median) }
	avg := func(name string) float64 { return tr.round(name, start, wall, mean) }
	gap, err := layerGap(map[string]float64{
		"api.prepare":      avg("api.prepare"),
		"sim.run":          avg("sim.run"),
		"api.report_build": avg("api.report_build"),
	}, avg("call"), kernelLayerTol)
	if err != nil {
		out.fail("%v", err)
	}
	n := float64(max(runs, 1))
	out.layers = append(out.layers,
		metric{"netfmt.parse_ms", "ms", tr.p50("netfmt.parse")},
		metric{"circ.compile_ms", "ms", tr.p50("circ.compile")},
		metric{"circ.partition_ms", "ms", tr.p50("circ.partition")},
		metric{"api.prepare_ms", "ms", p("api.prepare")},
		metric{"sim.run_ms", "ms", p("sim.run")},
		metric{"api.report_build_ms", "ms", p("api.report_build")},
		metric{"sim.ns_per_event", "ns", float64(runNs) / float64(max(events, 1))},
		metric{"sim.horizon_stalls_per_run", "count", float64(stalls) / n},
		metric{"sim.mailbox_sends_per_run", "count", float64(sends) / n},
		metric{"trace.overhead_ratio", "ratio", p("call")/untracedP50 - 1},
		metric{"trace.layer_gap_ratio", "ratio", gap},
	)
	return nil
}
