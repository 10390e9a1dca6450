package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"halotis"
	"halotis/cluster"
	"halotis/internal/cellib"
	"halotis/internal/circuits"
	"halotis/internal/service"
)

// The cluster experiment measures what sharding buys: aggregate
// unique-request throughput (every request a distinct stimulus, so no
// result cache can help) against 1 replica vs N replicas.
//
// All replicas of this harness run in one process on one host, so raw
// CPU-bound throughput cannot scale with replica count — the replicas
// share the machine. The sweep therefore measures two modes:
//
//   - "capacity": each replica is wrapped in an explicit per-node
//     capacity model — a slot semaphore plus a fixed per-request service
//     delay — standing in for the bounded capacity a real node has
//     (kernel time on its own CPUs, NIC, disk). Cluster throughput then
//     shows what placement actually delivers: N capacity-bounded nodes
//     serve ~N× the aggregate load as long as rendezvous placement
//     spreads circuits, which is exactly the property under test.
//   - "cpu": the raw in-process numbers with no model, reported for
//     honesty. On a multi-core host this scales with spare cores; on a
//     single-core host it hovers near 1×.
//
// The per-node attribution comes from each replica's own /metrics:
// halotisd_build_info{replica="..."} identifies the node and
// halotisd_sim_runs_total counts the kernel runs it absorbed.

// clusterPoint is one measured (mode, replicas) configuration.
type clusterPoint struct {
	requests     int
	reqPerSec    float64
	p50Us, p99Us float64
	// perNodeRuns attributes kernel runs per replica, scraped from each
	// node's /metrics (halotisd_sim_runs_total joined on the
	// halotisd_build_info replica label).
	perNodeRuns map[string]uint64
}

// cappedNode models one node's bounded capacity in front of a replica
// handler: a request holds one of the node's slots for the service delay
// plus its real compute. Health probes bypass the model — a real node
// answers /healthz from its serving loop, not its simulation capacity.
type cappedNode struct {
	h     http.Handler
	slots chan struct{}
	delay time.Duration
}

func (n *cappedNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if n.delay > 0 && r.URL.Path != "/healthz" {
		n.slots <- struct{}{}
		defer func() { <-n.slots }()
		time.Sleep(n.delay)
	}
	n.h.ServeHTTP(w, r)
}

var (
	buildInfoRe = regexp.MustCompile(`halotisd_build_info\{[^}]*replica="([^"]*)"[^}]*\} 1`)
	simRunsRe   = regexp.MustCompile(`(?m)^halotisd_sim_runs_total (\d+)$`)
)

// scrapeNodeRuns reads one replica's /metrics and returns (replica label,
// kernel runs).
func scrapeNodeRuns(url string) (string, uint64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", 0, err
	}
	text := string(data)
	m := buildInfoRe.FindStringSubmatch(text)
	if m == nil {
		return "", 0, fmt.Errorf("no halotisd_build_info replica label in metrics")
	}
	r := simRunsRe.FindStringSubmatch(text)
	if r == nil {
		return "", 0, fmt.Errorf("no halotisd_sim_runs_total in metrics")
	}
	runs, err := strconv.ParseUint(r[1], 10, 64)
	return m[1], runs, err
}

// clusterWorkloads builds the sharded circuit set: same-size random
// combinational circuits under distinct seeds, so content hashes — and
// therefore placement — differ while per-request kernel cost stays
// uniform (uniform cost isolates the placement spread being measured).
func clusterWorkloads(lib *cellib.Library, n int) ([]*halotis.Circuit, error) {
	out := make([]*halotis.Circuit, n)
	for i := range out {
		ckt, err := circuits.RandomCombinational(lib, circuits.RandomOptions{
			Inputs: 8, Gates: 60, Seed: int64(i + 1),
		})
		if err != nil {
			return nil, err
		}
		out[i] = ckt
	}
	return out, nil
}

// clusterSweep measures one (mode, replicas) point.
func clusterSweep(lib *cellib.Library, nReplicas, runs, clients int, delay time.Duration) (*clusterPoint, error) {
	type node struct {
		svc *service.Server
		ts  *httptest.Server
	}
	nodes := make([]*node, nReplicas)
	addrs := make([]string, nReplicas)
	ids := make([]string, nReplicas)
	for i := range nodes {
		svc := service.New(service.Config{ReplicaID: fmt.Sprintf("n%d", i+1)})
		h := http.Handler(svc.Handler())
		if delay > 0 {
			h = &cappedNode{h: svc.Handler(), slots: make(chan struct{}, 1), delay: delay}
		}
		ts := httptest.NewServer(h)
		nodes[i] = &node{svc: svc, ts: ts}
		addrs[i] = ts.URL
		ids[i] = fmt.Sprintf("n%d", i+1)
	}
	defer func() {
		for _, n := range nodes {
			n.ts.Close()
			n.svc.Close()
		}
	}()

	replication := 2
	if replication > nReplicas {
		replication = nReplicas
	}
	cl, err := cluster.New(addrs,
		cluster.WithReplicaIDs(ids...),
		cluster.WithReplication(replication),
		cluster.WithProbeInterval(0),
	)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	ctx := context.Background()
	ckts, err := clusterWorkloads(lib, 36)
	if err != nil {
		return nil, err
	}
	sessions := make([]halotis.Session, len(ckts))
	inputs := make([][]string, len(ckts))
	for i, ckt := range ckts {
		s, err := cl.Open(ctx, ckt)
		if err != nil {
			return nil, fmt.Errorf("open workload %d: %w", i, err)
		}
		defer s.Close()
		sessions[i] = s
		inputs[i] = s.Circuit().Inputs
	}

	var next atomic.Int64
	latencies := make([][]time.Duration, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lat := make([]time.Duration, 0, runs/clients+1)
			for {
				i := int(next.Add(1)) - 1
				if i >= runs {
					break
				}
				w := i % len(sessions)
				req := halotis.Request{TEnd: 30, Stimulus: toggleStimulus(inputs[w], i+1)}
				t0 := time.Now()
				if _, err := sessions[w].Run(ctx, req); err != nil {
					errs[g] = fmt.Errorf("request %d: %w", i, err)
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
			return nil, err
		}
	}

	var all []time.Duration
	for _, lat := range latencies {
		all = append(all, lat...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	perNode := make(map[string]uint64, nReplicas)
	for _, n := range nodes {
		id, nodeRuns, err := scrapeNodeRuns(n.ts.URL)
		if err != nil {
			return nil, fmt.Errorf("scrape node metrics: %w", err)
		}
		perNode[id] = nodeRuns
	}

	return &clusterPoint{
		requests:    len(all),
		reqPerSec:   float64(len(all)) / wall.Seconds(),
		p50Us:       percentile(all, 0.50),
		p99Us:       percentile(all, 0.99),
		perNodeRuns: perNode,
	}, nil
}

// clusterExperiment runs the sharding sweep in both modes.
func clusterExperiment(lib *cellib.Library, replicasFlag string, runs, clients int) (string, error) {
	if runs < 1 || clients < 1 {
		return "", fmt.Errorf("-clusterruns and -clusterclients must be >= 1")
	}
	counts, err := parseConcList(replicasFlag)
	if err != nil {
		return "", fmt.Errorf("bad -clusterreplicas: %w", err)
	}

	// Each node of the capacity model serves one request at a time, each
	// occupying it for at least nodeDelay.
	const nodeDelay = 4 * time.Millisecond
	var b strings.Builder
	fmt.Fprintf(&b, "Cluster sharding sweep (%d unique requests/sweep, %d clients, %s, host GOMAXPROCS %d)\n",
		runs, clients, runtime.Version(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "capacity mode models each node as 1 slot x %v service time; cpu mode is raw (replicas share this host's cores)\n",
		nodeDelay)
	fmt.Fprintf(&b, "%-9s %9s %12s %12s %10s %10s  %s\n", "mode", "replicas", "requests", "req/s", "p50(us)", "p99(us)", "per-node runs")

	byMode := map[string]map[int]float64{}
	for _, mode := range []string{"capacity", "cpu"} {
		byMode[mode] = map[int]float64{}
		delay := nodeDelay
		if mode == "cpu" {
			delay = 0
		}
		for _, n := range counts {
			p, err := clusterSweep(lib, n, runs, clients, delay)
			if err != nil {
				return "", fmt.Errorf("%s mode, %d replicas: %w", mode, n, err)
			}
			byMode[mode][n] = p.reqPerSec
			var nodesDesc []string
			for _, id := range sortedKeys(p.perNodeRuns) {
				nodesDesc = append(nodesDesc, fmt.Sprintf("%s:%d", id, p.perNodeRuns[id]))
			}
			fmt.Fprintf(&b, "%-9s %9d %12d %12.0f %10.0f %10.0f  %s\n",
				mode, n, p.requests, p.reqPerSec, p.p50Us, p.p99Us, strings.Join(nodesDesc, " "))
		}
	}

	minN, maxN := slices.Min(counts), slices.Max(counts)
	if minN != maxN {
		fmt.Fprintf(&b, "aggregate unique-request speedup %dx->%dx replicas: %.2fx under the per-node capacity model, %.2fx raw cpu\n",
			minN, maxN, byMode["capacity"][maxN]/byMode["capacity"][minN], byMode["cpu"][maxN]/byMode["cpu"][minN])
	}
	return b.String(), nil
}

func sortedKeys(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
