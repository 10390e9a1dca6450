// Command halotisd is the HALOTIS simulation daemon: a long-running
// HTTP/JSON service over the compiled-IR simulation kernel, with a
// content-addressed compiled-circuit cache, per-circuit engine pools, and an
// admission gate that bounds the jobs running at once and the jobs waiting
// (see internal/service).
//
// Usage:
//
//	halotisd [-addr :8080] [-id NAME] [-workers N] [-queue N] [-cache N]
//	         [-result-cache N] [-pool N] [-max-body BYTES]
//	         [-max-timeout DUR] [-max-events N] [-drain-timeout DUR]
//	         [-slo-p99-ms MS] [-slo-availability FRACTION]
//	         [-cluster URLS] [-replication R] [-probe-interval DUR]
//	         [-chaos RULES] [-chaos-seed N]
//	         [-log-level LEVEL] [-log-format FMT] [-pprof ADDR] [-version]
//
// Endpoints: POST /v1/circuits, GET /v1/circuits[/{id}], DELETE
// /v1/circuits/{id}, POST /v1/simulate, POST /v1/simulate/batch,
// GET /v1/traces[/{id}], GET /healthz, GET /metrics, GET /v1/status,
// GET /v1/series, GET /v1/flightrecorder.
//
// Fleet health: -slo-p99-ms and -slo-availability set the objectives the
// node (or router) evaluates multi-window burn rates against on GET
// /v1/status. Every API request is filed into an in-memory flight
// recorder; anomalous ones — slow, failed, shed, degraded, hedged,
// partial — are promoted to pinned trace exemplars retrievable through
// GET /v1/flightrecorder and GET /v1/traces/{id} even when the caller
// never enabled tracing. GET /v1/series serves the node's in-process
// time-series history (?metric=...&window=...).
//
// Observability: -log-level (debug|info|warn|error) and -log-format
// (text|json) shape the structured request/operational log on stderr;
// requests carrying a Halotis-Trace header additionally log their trace
// ID and record spans served by GET /v1/traces. -pprof ADDR serves
// net/http/pprof on a separate listener (off by default), so CPU and
// heap profiles never share a port with the public API:
//
//	halotisd -pprof localhost:6060 &
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//
// Router mode: -cluster "http://n1:8080,http://n2:8080,..." serves the
// same wire API as a cluster router instead — requests are routed across
// the listed replicas by rendezvous hashing on circuit content hashes,
// with health-checked failover and R-way placement (-replication), plus
// GET /v1/topology (see halotis/cluster). Existing clients, including
// halotis -remote, work unchanged against a router.
//
// Fault injection: -chaos mounts a seeded fault layer in front of the
// handler (single-node and router modes alike) for resilience testing:
//
//	halotisd -chaos 'latency:p=0.1,d=200ms;reset:p=0.05' -chaos-seed 7
//
// Rules are semicolon-separated kind:key=value,... specs — kinds latency,
// reset, status, truncate; keys p, match, method, d, code, retry_after,
// bytes, burst=K/N (see halotis/internal/faultinject.ParseRules). The
// same seed and request order replay the same fault sequence.
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: it stops accepting
// connections, waits for in-flight requests (bounded by -drain-timeout),
// and waits for every admitted job before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"halotis/cluster"
	"halotis/internal/buildinfo"
	"halotis/internal/faultinject"
	"halotis/internal/obs"
	"halotis/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	id := flag.String("id", "", "replica identity: stamped into responses and /metrics so multi-node sweeps can attribute work per node")
	workers := flag.Int("workers", 0, "compile and simulation jobs that run at once (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue", 0, "jobs that may wait for a running slot before requests are refused with 503 (0 = 4x workers)")
	cacheSize := flag.Int("cache", 64, "compiled-circuit cache capacity")
	resultCache := flag.Int("result-cache", 0, "result cache capacity: repeated identical simulate requests skip the kernel (0 = default 1024, negative = disabled)")
	poolSize := flag.Int("pool", 0, "free engines retained per circuit and options (0 = workers)")
	maxBody := flag.Int64("max-body", 8<<20, "maximum request body, bytes (replica mode only: the -cluster router caps bodies at 8 MiB)")
	maxTimeout := flag.Duration("max-timeout", 0, "ceiling on per-request run time, capping timeout_ms and applying when it is omitted (0 = uncapped)")
	maxEvents := flag.Uint64("max-events", 0, "cap on per-request max_events (0 = engine default only)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound for in-flight requests")
	sloP99Ms := flag.Float64("slo-p99-ms", 500, "latency SLO in milliseconds: a request slower than this is SLO-bad and promoted in the flight recorder (both modes)")
	sloAvail := flag.Float64("slo-availability", 0.999, "availability SLO target in (0,1) the /v1/status burn-rate windows are evaluated against (both modes)")
	clusterAddrs := flag.String("cluster", "", "router mode: comma-separated replica base URLs to route over instead of simulating locally")
	replication := flag.Int("replication", 2, "router mode: place each circuit on the top-R ranked replicas")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "router mode: replica health probe interval (0 disables active probing)")
	chaosSpec := flag.String("chaos", "", "fault-injection rules mounted in front of the handler, e.g. 'latency:p=0.1,d=200ms;reset:p=0.05' (see halotis/internal/faultinject)")
	chaosSeed := flag.Int64("chaos-seed", 1, "PRNG seed for -chaos: the same seed and request order replay the same faults")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error (debug also logs untraced requests)")
	logFormat := flag.String("log-format", "text", "log encoding: text or json")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060; empty = disabled)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(buildinfo.String("halotisd"))
		return
	}
	logger, err := obs.NewLogger(*logLevel, *logFormat, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "halotisd: %v\n", err)
		os.Exit(2)
	}
	fatal := func(msg string, err error) {
		logger.Error(msg, "error", err)
		os.Exit(1)
	}
	if *pprofAddr != "" {
		go servePprof(logger, *pprofAddr)
	}
	chaos, err := chaosMiddleware(logger, *chaosSpec, *chaosSeed)
	if err != nil {
		fatal("-chaos", err)
	}
	sloP99 := time.Duration(*sloP99Ms * float64(time.Millisecond))

	var (
		h            http.Handler
		closeBackend func()
	)
	if *clusterAddrs != "" {
		var replicas []string
		for _, a := range strings.Split(*clusterAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				replicas = append(replicas, a)
			}
		}
		c, err := cluster.New(replicas,
			cluster.WithReplication(*replication),
			cluster.WithProbeInterval(*probeInterval),
			cluster.WithSLO(cluster.SLOPolicy{TargetP99: sloP99, TargetAvailability: *sloAvail}),
			cluster.WithLogger(logger),
		)
		if err != nil {
			fatal("router failed", err)
		}
		logger.Info("routing", "replicas", len(replicas), "replication", c.Replication())
		h, closeBackend = c.Handler(), func() { c.Close() }
	} else {
		svc := service.New(service.Config{
			ReplicaID:             *id,
			Workers:               *workers,
			QueueDepth:            *queueDepth,
			CacheSize:             *cacheSize,
			ResultCacheSize:       *resultCache,
			EnginePoolSize:        *poolSize,
			MaxBodyBytes:          *maxBody,
			MaxTimeout:            *maxTimeout,
			MaxEvents:             *maxEvents,
			SLOTargetP99:          sloP99,
			SLOTargetAvailability: *sloAvail,
			Logger:                logger,
		})
		// Close waits, once serve has returned, for the jobs of requests
		// that a forced close left running.
		h, closeBackend = svc.Handler(), svc.Close
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop) // a second signal during the drain kills the process
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen failed", err)
	}
	logger.Info("listening", "addr", ln.Addr().String())
	err = serve(ctx, logger, ln, chaos(h), *drainTimeout)
	closeBackend()
	if err != nil {
		fatal("server failed", err)
	}
	logger.Info("drained, exiting")
}

// serve serves h on ln until ctx is canceled or serving fails. On
// cancellation it shuts down gracefully: it stops accepting and waits up to
// drainTimeout for in-flight requests, whose jobs run on the requests' own
// goroutines. Connections still open after that are force-closed, which
// cancels their request contexts, so their waiting jobs leave the backlog
// and their simulations abort at the kernel's next event-pop check instead
// of running to completion; serve then returns the shutdown error.
func serve(ctx context.Context, logger *slog.Logger, ln net.Listener, h http.Handler, drainTimeout time.Duration) error {
	srv := &http.Server{Handler: h}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down, draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), drainTimeout)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	if err != nil {
		logger.Warn("drain timeout exceeded, aborting in-flight requests", "error", err)
		srv.Close()
	}
	if serveErr := <-errCh; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}

// servePprof exposes the net/http/pprof handlers on their own listener —
// never on the public API port — so profiling stays an explicit operator
// decision (-pprof) and can be firewalled separately.
func servePprof(logger *slog.Logger, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("pprof listening", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Error("pprof listener failed", "error", err)
	}
}

// chaosMiddleware parses the -chaos rule spec into a handler wrapper, or
// returns the identity when no rules are given. Mounting the fault layer in
// front of the full handler (rather than inside the service) means routing,
// admission and metrics all see the injected faults exactly as a client would.
func chaosMiddleware(logger *slog.Logger, spec string, seed int64) (func(http.Handler) http.Handler, error) {
	if spec == "" {
		return func(h http.Handler) http.Handler { return h }, nil
	}
	rules, err := faultinject.ParseRules(spec)
	if err != nil {
		return nil, err
	}
	inj := faultinject.New(seed, rules...)
	for _, r := range inj.Rules() {
		logger.Info("chaos rule mounted", "rule", r)
	}
	return inj.Middleware, nil
}
