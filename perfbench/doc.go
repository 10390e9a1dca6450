// Command perfbench is the repository's benchmark. One run executes one
// seeded workload, prints every end-to-end metric by name and unit, and
// checks every report; -trace 1 adds a traced pass that times calls into
// each layer's public functions from the benchmark's own code, keeps the
// spans in memory, writes them out at exit, and reports the per-layer
// metrics instead.
//
// Run it from the repository root; the script builds it from the checkout's
// sources into ${CARGO_TARGET_DIR:-.bench_build} and runs it:
//
//	bash perfbench/run.sh --workload kernel-large --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The default seed is 1.
//
// # Workloads
//
// Every input is generated from the seed; the program receives only
// netlist text and requests. Each workload runs a fixed, seeded op
// sequence in a closed loop.
//
//   - kernel-large: the random-dag family at 100k gates (100,000 gates,
//     1,562 inputs, 32,434 outputs); each op is one Session.Run on a Local
//     backend with default options and 3 random vectors; 8 distinct
//     requests, one caller. The circuit is above the 50k-gate
//     auto-partition threshold, so on 2 cores the default path is the P=2
//     partitioned kernel, and its working set far exceeds cache.
//     BuildReport over 32k outputs is about a tenth of an op. Kernel
//     locality, partitioning and report-build changes show here; service
//     and cluster code never run.
//   - serve-fleet: two service.New replicas behind a cluster router, all on
//     loopback httptest listeners in this process, driven by 2 typed
//     clients (one connection each). Circuits are small: ISCAS85 c17, an
//     8x8 array multiplier and the 1k-gate random DAG. The seeded op mix is
//     55% fresh simulate-by-ID requests returning outputs only, 15% fresh
//     requests that also ask for waveforms and VCD, 27% exact repeats of a
//     24-request hot set warmed on both replicas during set-up (result-cache
//     hits), and 3% uploads of fresh 150-gate circuits (router parse and
//     placement, then replica parse and compile). The kernel is a small
//     share of a request; wire encoding, queueing, caches, obs, transport
//     and the router hop dominate. Kernel changes should leave it unchanged.
//
// A third workload, sweep-mult (the multiplier family at 30k gates, each op
// one Session.RunBatch of 2×GOMAXPROCS requests: the delay model's heavy
// case, 80% of transitions degraded), is left out: at 20 s over ten seeds
// its spread was 17% on latency_p50_ms and ops_per_s and 36% on
// upload_p50_ms, because a batch waits for both vCPUs at once.
//
// # End-to-end metrics
//
//	setup_s         s    netlist text in memory to the first completed op: parse, compile,
//	                     partition, session open or node start-up, uploads, warm-up ops.
//	                     Median of the run's set-ups.
//	ops_per_s       1/s  requests completed per second; on serve-fleet uploads count too.
//	latency_p50_ms  ms   time per call: one Run, one HTTP simulate.
//	latency_p90_ms  ms   see below.
//	latency_p99_ms  ms   see below.
//	upload_p50_ms   ms   the write path: serve-fleet upload calls; on kernel-large, netlist
//	                     text to an open Local session (parse and compile).
//	heap_peak_mb    MB   peak live Go heap during the timed phase, read after every op.
//
// Steadiness. On the reference VM (2 vCPUs, GOMAXPROCS 2) the hypervisor
// steals time from the guest in bursts, and stolen time only ever makes a
// call slower. So each timed phase is cut into 10 rounds of equal length,
// and each figure is taken per round and reported from the better-quartile
// round (the third best): every call of that round counts, and a burst that
// spoils a few rounds does not move it.
//
//   - kernel-large: ops_per_s is a round's calls over their summed latency
//     (one caller, so that is its wall time without the rounding to whole
//     calls), latency_p50_ms a round's median. A round of about 23 calls
//     cannot support a p90, so latency_p90_ms is the p90 of every call of
//     the phase (about 230 in 40 s, 23 beyond it), and latency_p99_ms, which
//     would need 1,000 calls, copies it. upload_p50_ms is the median of the
//     set-ups' session opens.
//   - serve-fleet: a round has over 4,000 calls in a 40 s run, so every
//     percentile is per round (the p99 has 40 beyond it); with fewer than
//     1,000 calls a round the tail comes from every call.
//   - setup_s is the median of the run's set-ups (9 on kernel-large, 15 on
//     serve-fleet), each started from a collected heap whose free pages went
//     back to the OS, so none inherits pages or a GC pace from the one
//     before.
//   - heap_peak_mb is the largest live heap a GC cycle marked during the
//     timed phase; heap objects including uncollected garbage would peak
//     wherever a cycle happened to end, which the host's timing decides.
//   - The runtime is collected before each timed phase; GOMAXPROCS is
//     printed; no more load goroutines than GOMAXPROCS are used.
//   - The router's hedge floor is raised to 250 ms, so no timing-dependent
//     duplicate work runs when steal stretches a request past 10 ms.
//
// # Per-layer metrics (-trace 1)
//
// The traced pass reruns the workload with a span around every call into
// a layer. Every workload prints every metric; a layer it never enters
// reads 0. The table names the end-to-end metric each should move, and on
// which workload.
//
//	netfmt.parse_ms, circ.compile_ms   setup_s, upload_p50_ms            all
//	circ.partition_ms                  setup_s                           kernel-large
//	api.prepare_ms, api.report_build_ms latency_p50_ms                   kernel-large, serve-fleet
//	sim.run_ms, sim.ns_per_event       latency_p50_ms, ops_per_s         kernel-large
//	sim.partitions, sim.horizon_stalls_per_run, sim.mailbox_sends_per_run
//	                                   latency_p50_ms                    kernel-large (P=2)
//	sim.events_per_run                 nothing: an invariant             all
//	eventq.queued_per_run, eventq.filtered_ratio
//	                                   ops_per_s                         kernel-large
//	delay.evaluations_per_run, delay.degraded_ratio, delay.fully_degraded_per_run
//	                                   ops_per_s                         kernel-large
//	client.request_encode_us, client.report_decode_us, client.transport_us
//	                                   latency_p50_ms, latency_p99_ms    serve-fleet
//	service.request_decode_us, service.report_encode_us
//	                                   latency_p50_ms                    serve-fleet
//	service.handler_us, service.self_us latency_p50_ms, ops_per_s        serve-fleet
//	service.queue_wait_us, service.rejected
//	                                   latency_p99_ms                    serve-fleet
//	service.result_cache_hit_ratio, service.compiles
//	                                   latency_p50_ms, upload_p50_ms     serve-fleet
//	obs.overhead_us                    latency_p50_ms                    serve-fleet
//	cluster.hop_us                     latency_p50_ms, latency_p99_ms    serve-fleet
//	cluster.hedges, cluster.failovers  latency_p99_ms (both expected 0)  serve-fleet
//	runtime.gc_cycles, runtime.gc_pause_ms, runtime.alloc_mb_per_op
//	                                   heap_peak_mb, tail latency        all
//	trace.overhead_ratio               nothing: traced/untraced p50 - 1  all
//	trace.layer_gap_ratio              nothing: sum of layer means/traced call mean - 1 all
//
// Definitions. client.transport_us is a raw loopback round trip to a
// replica minus service.handler_us, the in-process ServeHTTP time with no
// socket; service.self_us is the mean handler time minus the mean of the
// decode, Prepare, run, BuildReport and encode the benchmark times on its
// own copy of the circuit; obs.overhead_us is the handler time with default fleet health
// minus that with SeriesWindows and FlightCapacity at -1; cluster.hop_us is
// the typed client's time through the router minus straight to a replica.
// Queue wait, rejections, result-cache hits and compiles are deltas of the
// replicas' /metrics over the timed phase; hedges and failovers come from
// the router's. Each traced path draws its own fresh requests, so no path
// turns another's miss into a hit.
//
// The layer-sum check fails the run when the layers' mean times do not add
// up to the mean time of the call they decompose, timed in the same traced
// phase (all from the better-quartile round), within 15% on kernel-large
// (Prepare + run + BuildReport against the traced call around them) or 20% on
// serve-fleet (request encode + transport + request decode + Prepare + run
// + BuildReport + report encode + report decode + router hop against calls
// through the router; cache hits add zero run and build time). Medians do
// not add over serve-fleet's mix: sim.run's median is a c17 run, its mean
// mostly 1k-gate runs. The handler's own time, service.self_us, is left out
// of the sum, so the gap is the part of a request no layer accounts for.
// The check compares within the traced phase because the host's speed can
// change by more than the tolerance between the untraced and the traced
// phase; trace.overhead_ratio reports that difference.
//
// # Measured spread
//
// Every end-to-end bound in BENCHMARK.json is 0.25, the largest allowed.
// Spread is the interquartile range over the median of ten 40 s runs on
// the reference VM (2 vCPUs, GOMAXPROCS 2): ten runs of the default seed 1,
// ten of the held-out seed 7919 that no tuning used, and ten runs of seeds
// 11-20, one each; the three sets and both workloads were interleaved.
//
//	metric          bound  kernel-large         serve-fleet
//	                       1 / 7919 / 11-20     1 / 7919 / 11-20
//	setup_s         0.25   0.13 / 0.15 / 0.10   0.18 / 0.12 / 0.15
//	ops_per_s       0.25   0.18 / 0.08 / 0.04   0.13 / 0.15 / 0.19
//	latency_p50_ms  0.25   0.15 / 0.07 / 0.04   0.17 / 0.20 / 0.23
//	latency_p90_ms  0.25   0.15 / 0.10 / 0.03   0.10 / 0.12 / 0.15
//	latency_p99_ms  0.25   (copies p90)         0.10 / 0.16 / 0.14
//	upload_p50_ms   0.25   0.14 / 0.17 / 0.12   0.11 / 0.11 / 0.13
//	heap_peak_mb    0.25   0.00 / 0.00 / 0.00   0.03 / 0.02 / 0.03
//
// Split into odd and even runs, each same-seed set's two halves had
// medians within 8% of each other on kernel-large and 11% on serve-fleet
// (serve-fleet latency_p50_ms, seed 7919). Every spread is within its
// bound, but most are above a third of it: the host changes speed for
// minutes at a time. Runs a few minutes apart agreed within a few percent
// while such periods differed by up to 30%, and steal stayed at 1.5% on
// average, so the change does not show as stolen time. No estimator within
// a run removes it. On seeds 1 and 7919 the traced layer means summed to
// the traced call's mean within 0.2% on kernel-large and within 8% on
// serve-fleet (service.self_us 102 and 87 µs); trace.overhead_ratio read
// -0.09 and -0.08 on kernel-large, +0.00 and +0.05 on serve-fleet; the
// router hedged and failed over nothing.
//
// # Checks
//
// Every report counts as an attempted op; a failed call or check counts
// as a failed one. After the timed phase, every distinct kernel request's
// outputs must equal the zero-delay boolean evaluation
// (netlist.Circuit.EvalBool) of its last input vector, which shares no
// code with the kernel; a profiled rerun and reruns at Partitions=1 must
// match the default P=2 run bit for bit in Stats and Outputs; every repeat
// of a kernel request must reproduce its Stats; every 97th serve-fleet
// report (up to 64) must equal a Local session's report of the same
// request and the zero-delay outputs; repeats must be result-cache hits and
// fresh requests misses. The op digest and the exact simulated counts of
// the seed's canonical ops (each distinct kernel request; the fleet's hot
// set and first 256 ops) are printed and must equal expected.json, which
// holds them for the default seed 1 and the held-out seed on both
// workloads, so a change to the simulated work shows in a reviewed diff.
// Any other seed is compared with the record its first run left in the
// build directory.
package main
