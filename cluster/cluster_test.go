package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"halotis"
	"halotis/api"
	"halotis/api/backendtest"
	"halotis/client"
	"halotis/internal/service"
)

// testReplica is one in-process halotisd a test cluster routes over.
type testReplica struct {
	id  string
	svc *service.Server
	ts  *httptest.Server
}

// kill makes the replica unreachable: in-flight connections drop and new
// dials are refused, exactly what a crashed node looks like to the router.
func (r *testReplica) kill() {
	r.ts.CloseClientConnections()
	r.ts.Close()
}

// startReplicas stands up n in-process daemons with identities r1..rn.
func startReplicas(t testing.TB, n int, cfg service.Config) []*testReplica {
	t.Helper()
	reps := make([]*testReplica, n)
	for i := range reps {
		c := cfg
		c.ReplicaID = fmt.Sprintf("r%d", i+1)
		svc := service.New(c)
		ts := httptest.NewServer(svc.Handler())
		reps[i] = &testReplica{id: c.ReplicaID, svc: svc, ts: ts}
	}
	t.Cleanup(func() {
		for _, r := range reps {
			r.ts.Close()
			r.svc.Close()
		}
	})
	return reps
}

func newTestCluster(t testing.TB, reps []*testReplica, opts ...Option) *Cluster {
	t.Helper()
	addrs := make([]string, len(reps))
	ids := make([]string, len(reps))
	for i, r := range reps {
		addrs[i] = r.ts.URL
		ids[i] = r.id
	}
	// Active probing off by default in tests: passive marking is the
	// mechanism under test, and tests that want probes call ProbeNow.
	base := []Option{WithReplicaIDs(ids...), WithProbeInterval(0)}
	c, err := New(addrs, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestClusterConformance: the sharded backend is indistinguishable from
// in-process execution — the acceptance criterion of the subsystem.
func TestClusterConformance(t *testing.T) {
	backendtest.Conform(t, newTestCluster(t, startReplicas(t, 3, service.Config{}), WithReplication(2)))
}

// TestRouterConformance drives the same suite through the HTTP router
// face: a plain Remote backend pointed at the router, proving the
// existing CLI and client work unchanged against a fleet.
func TestRouterConformance(t *testing.T) {
	c := newTestCluster(t, startReplicas(t, 3, service.Config{}), WithReplication(2))
	rts := httptest.NewServer(c.Handler())
	t.Cleanup(rts.Close)
	backendtest.Conform(t, halotis.NewRemote(rts.URL))
}

func syntheticIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		sum := sha256.Sum256([]byte(fmt.Sprintf("circuit-%d", i)))
		ids[i] = hex.EncodeToString(sum[:])
	}
	return ids
}

// TestRankProperties pins the rendezvous guarantees placement relies on:
// determinism, independence from input order, rough balance, and — the
// property that makes replica loss cheap — removing a replica moves only
// the circuits that replica led.
func TestRankProperties(t *testing.T) {
	replicas := []string{"r1", "r2", "r3"}
	ids := syntheticIDs(300)

	counts := map[string]int{}
	for _, id := range ids {
		a := Rank(id, replicas)
		b := Rank(id, []string{"r3", "r1", "r2"})
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Fatalf("ranking depends on input order: %v vs %v", a, b)
		}
		if len(a) != 3 {
			t.Fatalf("rank dropped replicas: %v", a)
		}
		counts[a[0]]++
	}
	for _, r := range replicas {
		if counts[r] < len(ids)*15/100 {
			t.Errorf("replica %s leads only %d/%d circuits; want a roughly balanced split %v", r, counts[r], len(ids), counts)
		}
	}

	moved, movedFromDead := 0, 0
	for _, id := range ids {
		before := Rank(id, replicas)[0]
		after := Rank(id, []string{"r1", "r2"})[0]
		if before != after {
			moved++
			if before == "r3" {
				movedFromDead++
			}
		}
	}
	if moved != movedFromDead {
		t.Errorf("removing r3 moved %d circuits, of which only %d were r3's — rendezvous must move nothing else", moved, movedFromDead)
	}
	if moved == 0 {
		t.Error("removing r3 moved no circuits; the balance check above should have made that impossible")
	}
}

// TestPlacementMatchesRank: the cluster's Placement is the top-R prefix of
// the pure ranking function, so operators can predict placement offline.
func TestPlacementMatchesRank(t *testing.T) {
	reps := startReplicas(t, 3, service.Config{})
	c := newTestCluster(t, reps, WithReplication(2))
	for _, id := range syntheticIDs(20) {
		want := Rank(id, []string{"r1", "r2", "r3"})[:2]
		got := c.Placement(id)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("Placement(%s) = %v, want %v", id[:8], got, want)
		}
	}
}

// TestFailoverKillReplicaMidRun is the availability acceptance test: one
// of three replicas dies mid-run and the cluster completes every request
// with identical reports and zero caller-visible errors, repairing the
// failover target by content-addressed re-upload.
func TestFailoverKillReplicaMidRun(t *testing.T) {
	ctx := context.Background()
	reps := startReplicas(t, 3, service.Config{})
	// R=1 so the killed replica is the only holder and the failover target
	// must be repaired by re-upload, the hardest variant.
	c := newTestCluster(t, reps, WithReplication(1))

	ckt := backendtest.Circuits(t)["c17"]
	sess, err := c.Open(ctx, ckt)
	if err != nil {
		t.Fatal(err)
	}
	req := halotis.Request{
		TEnd:      30,
		Stimulus:  halotis.WireStimulus(backendtest.StimulusFor(t, "c17", ckt)),
		Waveforms: sess.Circuit().Outputs,
		VCD:       true,
	}

	baseline, err := sess.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the circuit's primary — the replica actually serving it.
	primary := c.Placement(sess.Circuit().ID)[0]
	var dead *testReplica
	for _, r := range reps {
		if r.id == primary {
			dead = r
		}
	}
	if dead == nil {
		t.Fatalf("primary %s not among test replicas", primary)
	}
	if baseline.Replica != primary {
		t.Fatalf("baseline served by %s, want primary %s", baseline.Replica, primary)
	}
	dead.kill()

	reupBefore := c.met.reuploads.Load()
	for i := 0; i < 5; i++ {
		rep, err := sess.Run(ctx, req)
		if err != nil {
			t.Fatalf("run %d after kill: %v", i, err)
		}
		backendtest.AssertReportsEqual(t, fmt.Sprintf("run %d after kill", i), rep, baseline)
		if rep.Replica == primary {
			t.Fatalf("run %d still reports the dead primary %s", i, primary)
		}
	}
	if got := c.met.reuploads.Load(); got != reupBefore+1 {
		t.Errorf("reuploads = %d, want exactly one repair of the failover target (was %d)", got, reupBefore)
	}
	if c.met.failovers.Load() == 0 {
		t.Error("failovers counter did not move")
	}

	// The dead replica must be marked down (passively), and a probe sweep
	// must agree.
	c.ProbeNow()
	for _, info := range c.Topology().Replicas {
		if info.ID == primary && info.Healthy {
			t.Errorf("killed replica %s still reported healthy", primary)
		}
		if info.ID != primary && !info.Healthy {
			t.Errorf("surviving replica %s reported down", info.ID)
		}
	}

	// Rendezvous stability: with the dead replica marked down, routing
	// moves only its circuits; every circuit led by a survivor keeps its
	// primary (candidates() puts it first among healthy replicas).
	for _, id := range syntheticIDs(100) {
		ranked := Rank(id, []string{"r1", "r2", "r3"})
		cands := c.candidates(id)
		if ranked[0] != primary && cands[0].id != ranked[0] {
			t.Fatalf("circuit %s led by surviving %s is now routed to %s", id[:8], ranked[0], cands[0].id)
		}
		if ranked[0] == primary {
			want := ranked[1]
			if cands[0].id != want {
				t.Fatalf("dead replica's circuit %s routed to %s, want next-ranked %s", id[:8], cands[0].id, want)
			}
		}
	}
}

// TestScatterGatherSpreadsBatch: with the circuit replicated everywhere, a
// batch fans across the placement set and merges in order.
func TestScatterGatherSpreadsBatch(t *testing.T) {
	ctx := context.Background()
	reps := startReplicas(t, 3, service.Config{})
	c := newTestCluster(t, reps, WithReplication(3))

	ckt := backendtest.Circuits(t)["c17"]
	sess, err := c.Open(ctx, ckt)
	if err != nil {
		t.Fatal(err)
	}
	reqs := backendtest.BatchRequests(t, ckt)
	reports, err := sess.RunBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(reqs) {
		t.Fatalf("got %d reports, want %d", len(reports), len(reqs))
	}
	servedBy := map[string]bool{}
	for _, rep := range reports {
		servedBy[rep.Replica] = true
	}
	if len(servedBy) < 2 {
		t.Errorf("batch of %d served by %d replica(s) %v; want the scatter to use several", len(reqs), len(servedBy), servedBy)
	}

	local, err := halotis.NewLocal().Open(ctx, ckt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		want, err := local.Run(ctx, reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		backendtest.AssertReportsEqual(t, fmt.Sprintf("scatter[%d]", i), reports[i], want)
	}
}

// TestUploadOnMissAfterEviction: a replica that evicted the circuit (LRU
// pressure, restart) is repaired in line rather than surfacing not-found.
func TestUploadOnMissAfterEviction(t *testing.T) {
	ctx := context.Background()
	reps := startReplicas(t, 2, service.Config{})
	c := newTestCluster(t, reps, WithReplication(2))

	ckt := backendtest.Circuits(t)["c17"]
	sess, err := c.Open(ctx, ckt)
	if err != nil {
		t.Fatal(err)
	}
	id := sess.Circuit().ID
	for _, r := range reps {
		if err := client.New(r.ts.URL).Evict(ctx, id); err != nil {
			t.Fatalf("evict on %s: %v", r.id, err)
		}
	}
	rep, err := sess.Run(ctx, halotis.Request{
		TEnd:     30,
		Stimulus: halotis.WireStimulus(backendtest.StimulusFor(t, "c17", ckt)),
	})
	if err != nil {
		t.Fatalf("run after cluster-wide eviction: %v", err)
	}
	if rep.Circuit != id {
		t.Fatalf("repaired run reports circuit %s, want %s", rep.Circuit, id)
	}
	if c.met.reuploads.Load() == 0 {
		t.Error("no re-upload recorded for the repair")
	}
}

// TestRouterFailoverAndMetrics drives the wire face through a replica
// death: the second run succeeds via failover and /metrics exposes the
// replica's down state — what make cluster-smoke asserts in CI.
func TestRouterFailoverAndMetrics(t *testing.T) {
	ctx := context.Background()
	reps := startReplicas(t, 3, service.Config{})
	c := newTestCluster(t, reps, WithReplication(1))
	rts := httptest.NewServer(c.Handler())
	t.Cleanup(rts.Close)
	cl := client.New(rts.URL)

	up, err := cl.UploadCircuit(ctx, api.UploadRequest{Netlist: halotis.C17BenchText(), Format: "bench", Name: "c17"})
	if err != nil {
		t.Fatal(err)
	}
	req := api.SimRequest{Circuit: up.ID, Request: api.Request{
		TEnd:     30,
		Stimulus: api.Stimulus{"1": {Edges: []api.Edge{{T: 2, Rising: true, Slew: 0.2}}}},
	}}
	first, err := cl.Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	for _, r := range reps {
		if r.id == first.Replica {
			r.kill()
		}
	}
	second, err := cl.Simulate(ctx, req)
	if err != nil {
		t.Fatalf("simulate after replica death: %v", err)
	}
	if second.Replica == first.Replica {
		t.Fatalf("second run still on dead replica %s", second.Replica)
	}
	if second.Stats != first.Stats {
		t.Errorf("stats differ across failover: %+v vs %+v", second.Stats, first.Stats)
	}

	metrics, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantDown := fmt.Sprintf("halotisd_router_replica_healthy{replica=%q} 0", first.Replica)
	if !strings.Contains(metrics, wantDown) {
		t.Errorf("metrics missing %q:\n%s", wantDown, metrics)
	}
	if !strings.Contains(metrics, "halotisd_router_failovers_total") {
		t.Errorf("metrics missing failover counter")
	}

	topo, err := cl.Topology(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Replicas) != 3 || topo.Replication != 1 {
		t.Fatalf("topology = %+v, want 3 replicas, replication 1", topo)
	}
}

// TestClusterErrorTaxonomy: routed failures keep their typed class, so
// callers branch identically behind the cluster backend.
func TestClusterErrorTaxonomy(t *testing.T) {
	ctx := context.Background()
	reps := startReplicas(t, 2, service.Config{})
	c := newTestCluster(t, reps, WithReplication(2))

	ckt := backendtest.Circuits(t)["c17"]
	sess, err := c.Open(ctx, ckt)
	if err != nil {
		t.Fatal(err)
	}

	// Invalid request: terminal on the first replica, no failover storm.
	_, err = sess.Run(ctx, halotis.Request{TEnd: 30, Waveforms: []string{"no_such_net"}})
	if !errors.Is(err, api.ErrInvalidRequest) {
		t.Errorf("unknown waveform net: err = %v, want ErrInvalidRequest", err)
	}

	// A request JSON cannot carry (a NaN horizon) is invalid before any
	// replica sees it, and marks none of them down.
	_, err = sess.Run(ctx, halotis.Request{TEnd: math.NaN()})
	if !errors.Is(err, api.ErrInvalidRequest) {
		t.Errorf("NaN t_end: err = %v, want ErrInvalidRequest", err)
	}
	unmarked := func(what string) {
		for _, r := range c.Topology().Replicas {
			if !r.Healthy || r.Failures != 0 {
				t.Errorf("%s marked replica %s: healthy=%v failures=%d", what, r.ID, r.Healthy, r.Failures)
			}
		}
	}
	unmarked("NaN t_end")

	// A deadline that passed before its context's timer fired: the client
	// refuses to send, and that shed is terminal, not a dead replica, on
	// the Backend face and through the router alike.
	past := pastDeadline{ctx}
	failovers := c.met.failovers.Load()
	_, err = sess.Run(past, halotis.Request{TEnd: 30})
	if !errors.Is(err, api.ErrDeadlineExceeded) {
		t.Errorf("past deadline: err = %v, want ErrDeadlineExceeded", err)
	}
	rec := httptest.NewRecorder()
	body := strings.NewReader(`{"circuit":"` + sess.Circuit().ID + `","t_end":30}`)
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", body).WithContext(past))
	var resp api.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusGatewayTimeout || resp.Code != api.CodeDeadlineExceeded {
		t.Errorf("past deadline through the router: %d %q (%v), want 504 %q", rec.Code, resp.Code, err, api.CodeDeadlineExceeded)
	}
	if n := c.met.failovers.Load() - failovers; n != 0 {
		t.Errorf("past deadline counted %d failovers", n)
	}
	unmarked("past deadline")

	// Cancellation surfaces as ErrCanceled, not as replica unavailability.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	_, err = sess.Run(canceled, halotis.Request{TEnd: 30})
	if !errors.Is(err, api.ErrCanceled) {
		t.Errorf("canceled ctx: err = %v, want ErrCanceled", err)
	}

	// Closed session refuses locally.
	sess.Close()
	_, err = sess.Run(ctx, halotis.Request{TEnd: 30})
	if !errors.Is(err, api.ErrCircuitNotFound) {
		t.Errorf("closed session: err = %v, want ErrCircuitNotFound", err)
	}

	// All replicas dead: availability error, still typed transportish but
	// wrapped — and fast enough to be a real answer.
	sess2, err := c.Open(ctx, ckt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reps {
		r.kill()
	}
	start := time.Now()
	_, err = sess2.Run(ctx, halotis.Request{TEnd: 30, Stimulus: halotis.WireStimulus(backendtest.StimulusFor(t, "c17", ckt))})
	if err == nil {
		t.Fatal("run with every replica dead succeeded")
	}
	if !strings.Contains(err.Error(), "all 2 replicas failed") {
		t.Errorf("err = %v, want the all-replicas wrapper", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Errorf("dead-cluster error took %v", time.Since(start))
	}
}

// pastDeadline is a context whose deadline has passed but whose timer has
// not fired yet, so Err is still nil.
type pastDeadline struct{ context.Context }

func (pastDeadline) Deadline() (time.Time, bool) { return time.Now().Add(-time.Second), true }

// TestRouterStatusMatchesReplica sends one request of each error class
// both roles answer, to a replica and to the router: each must answer with
// the status and taxonomy code of the node's error table, the router with
// the replica's.
func TestRouterStatusMatchesReplica(t *testing.T) {
	reps := startReplicas(t, 1, service.Config{})
	// One attempt per replica call, so the draining replica's 503 comes
	// back without a Retry-After sleep.
	rts := httptest.NewServer(newTestCluster(t, reps, WithRetry(client.RetryPolicy{MaxAttempts: 1})).Handler())
	t.Cleanup(rts.Close)
	up, err := client.New(rts.URL).UploadCircuit(context.Background(), api.UploadRequest{Netlist: halotis.C17BenchText(), Format: "bench", Name: "c17"})
	if err != nil {
		t.Fatal(err)
	}

	const bad = "OUTPUT(y)\ny = NOSUCHGATE(a, b\n"
	run := api.Request{TEnd: 30}
	jsonOf := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	byID := func(fields string) string { return `{"circuit":"` + up.ID + `","t_end":30` + fields + `}` }
	const twoEdges = `,"stimulus":{"1":{"edges":[{"t":2,"rising":true}]},"2":{"edges":[{"t":3,"rising":true}]}}`
	cases := []struct {
		name, path, body string
		spent            bool // send an already spent deadline budget
		drain            bool // drain the replica first
		status           int
		code             string
	}{
		{name: "undecodable body", path: "/v1/simulate", body: `{"t_end":`,
			status: http.StatusBadRequest, code: api.CodeInvalidRequest},
		{name: "inline simulate", path: "/v1/simulate", body: jsonOf(api.SimRequest{Netlist: bad, Format: "bench", Request: run}),
			status: http.StatusUnprocessableEntity, code: api.CodeInvalidRequest},
		{name: "inline batch", path: "/v1/simulate/batch", body: jsonOf(api.BatchRequest{Netlist: bad, Format: "bench", Requests: []api.Request{run}}),
			status: http.StatusUnprocessableEntity, code: api.CodeInvalidRequest},
		{name: "upload", path: "/v1/circuits", body: jsonOf(api.UploadRequest{Netlist: bad, Format: "bench"}),
			status: http.StatusUnprocessableEntity, code: api.CodeInvalidRequest},
		{name: "unknown input", path: "/v1/simulate", body: byID(`,"stimulus":{"nosuch":{"edges":[{"t":1,"rising":true}]}}`),
			status: http.StatusUnprocessableEntity, code: api.CodeInvalidRequest},
		{name: "unknown circuit", path: "/v1/simulate", body: `{"circuit":"` + strings.Repeat("0", 64) + `","t_end":30}`,
			status: http.StatusNotFound, code: api.CodeNotFound},
		{name: "event limit", path: "/v1/simulate", body: byID(`,"max_events":1` + twoEdges),
			status: http.StatusUnprocessableEntity, code: api.CodeRunFailed},
		{name: "spent budget", path: "/v1/simulate", body: byID(""), spent: true,
			status: http.StatusGatewayTimeout, code: api.CodeDeadlineExceeded},
		{name: "draining replica", path: "/v1/simulate", body: byID(""), drain: true,
			status: http.StatusServiceUnavailable, code: api.CodeOverloaded},
	}
	for _, tc := range cases {
		if tc.drain {
			reps[0].svc.Close()
		}
		answer := func(url string) (int, string) {
			req, err := http.NewRequest(http.MethodPost, url+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.spent {
				req.Header.Set(api.BudgetHeader, "0")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var body api.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("%s to %s: %d answer is not an ErrorResponse: %v", tc.name, url, resp.StatusCode, err)
			}
			return resp.StatusCode, body.Code
		}
		wantStatus, wantCode := answer(reps[0].ts.URL)
		if wantStatus != tc.status || wantCode != tc.code {
			t.Errorf("%s: replica answered %d %q, want %d %q", tc.name, wantStatus, wantCode, tc.status, tc.code)
		}
		if gotStatus, gotCode := answer(rts.URL); gotStatus != wantStatus || gotCode != wantCode {
			t.Errorf("%s: router answered %d %q, replica %d %q", tc.name, gotStatus, gotCode, wantStatus, wantCode)
		}
	}
}

// TestTrailingDataRejected posts upload, simulate and batch bodies with
// something after the JSON document to a replica and to the router: a
// stray closing bracket is trailing data like any other, a 400
// invalid_request on both roles, and whitespace alone is not.
func TestTrailingDataRejected(t *testing.T) {
	reps := startReplicas(t, 1, service.Config{})
	rts := httptest.NewServer(newTestCluster(t, reps).Handler())
	t.Cleanup(rts.Close)
	up, err := client.New(rts.URL).UploadCircuit(context.Background(), api.UploadRequest{Netlist: halotis.C17BenchText(), Format: "bench"})
	if err != nil {
		t.Fatal(err)
	}
	run := `{"t_end":30,"stimulus":{"1":{"edges":[{"t":2,"rising":true}]}}}`
	routes := []struct{ path, body string }{
		{"/v1/circuits", `{"format":"bench","netlist":` + strconv.Quote(halotis.C17BenchText()) + `}`},
		{"/v1/simulate", `{"circuit":"` + up.ID + `",` + run[1:]},
		{"/v1/simulate/batch", `{"circuit":"` + up.ID + `","requests":[` + run + `]}`},
	}
	nodes := []struct{ name, url string }{{"replica", reps[0].ts.URL}, {"router", rts.URL}}
	for _, rt := range routes {
		for _, n := range nodes {
			for _, tail := range []string{"}", "]", "}}", "]}", " }", "\n]", "x", "{}", "null"} {
				resp, err := http.Post(n.url+rt.path, "application/json", strings.NewReader(rt.body+tail))
				if err != nil {
					t.Fatal(err)
				}
				var body api.ErrorResponse
				derr := json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest || derr != nil || body.Code != api.CodeInvalidRequest {
					t.Errorf("%s %s + %q: %d %q (%v), want 400 %q", n.name, rt.path, tail, resp.StatusCode, body.Code, derr, api.CodeInvalidRequest)
				}
			}
			resp, err := http.Post(n.url+rt.path, "application/json", strings.NewReader(rt.body+" \t\r\n"))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s %s + whitespace: %d, want 200", n.name, rt.path, resp.StatusCode)
			}
		}
	}
}
