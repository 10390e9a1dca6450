package main

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"halotis/api"
)

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		q    float64
		need int
	}{{0.5, 1}, {0.9, 100}, {0.99, 1000}} {
		short := make([]float64, tc.need-1)
		if _, err := quantile(short, tc.q); err == nil && tc.q > 0.5 {
			t.Errorf("p%g of %d samples accepted", 100*tc.q, len(short))
		}
		enough := make([]float64, tc.need)
		for i := range enough {
			enough[i] = float64(i)
		}
		v, err := quantile(enough, tc.q)
		if err != nil {
			t.Fatalf("p%g of %d samples: %v", 100*tc.q, tc.need, err)
		}
		beyond := 0
		for _, x := range enough {
			if x > v {
				beyond++
			}
		}
		if tc.q > 0.5 && beyond < minBeyond {
			t.Errorf("p%g of %d samples = %g has %d samples beyond it", 100*tc.q, tc.need, v, beyond)
		}
	}
}

func TestRoundFiguresShrugOffASlowRound(t *testing.T) {
	wall := 10 * time.Second
	var calls []call
	for i := 0; i < 1000; i++ {
		lat := 1.0
		if i < 100 { // the first round is ten times slower
			lat = 10
		}
		calls = append(calls, call{end: time.Duration(i) * wall / 1000, ms: lat})
	}
	p50s, err := perRound(calls, wall, func(lat []float64, _ time.Duration) (float64, error) { return median(lat), nil })
	if err != nil || len(p50s) != rounds {
		t.Fatalf("perRound = %v, %v; want %d rounds", p50s, err, rounds)
	}
	if got := betterQuartile(p50s, false); got != 1 {
		t.Errorf("better-quartile p50 = %g, want 1", got)
	}
	if got := betterQuartile([]float64{5, 1, 9, 7, 3, 2, 8, 4, 6, 10}, true); got != 8 {
		t.Errorf("better-quartile of 1..10, higher is better = %g, want 8", got)
	}
	// 100 calls a round cannot support a p99: the figure comes from all.
	p99, err := perRound(calls, wall, percentile(0.99))
	if err != nil || len(p99) != 1 || p99[0] != 10 {
		t.Errorf("p99 over all calls = %v, %v; want [10]", p99, err)
	}
}

func TestOpSequenceIsAPureFunctionOfTheSeed(t *testing.T) {
	inputs := []string{"a", "b", "c", "d"}
	if a, b := digest(kernelOps(7, inputs, 8, 3)), digest(kernelOps(7, inputs, 8, 3)); a != b {
		t.Errorf("kernel ops of one seed differ: %s vs %s", a, b)
	}
	if a, b := digest(kernelOps(7, inputs, 8, 3)), digest(kernelOps(8, inputs, 8, 3)); a == b {
		t.Errorf("kernel ops of seeds 7 and 8 share digest %s", a)
	}
	base, err := fleetCircuits()
	if err != nil {
		t.Fatal(err)
	}
	fleetDigest := func(seed int64) string {
		hot := hotSet(seed, base)
		ops := make([]fleetOp, 200)
		for i := range ops {
			if ops[i], err = opAt(seed, i, base, hot); err != nil {
				t.Fatal(err)
			}
		}
		return digest(struct{ Hot, Ops []fleetOp }{hot, ops})
	}
	if a, b := fleetDigest(7), fleetDigest(7); a != b {
		t.Errorf("fleet ops of one seed differ: %s vs %s", a, b)
	}
	if a, b := fleetDigest(7), fleetDigest(8); a == b {
		t.Errorf("fleet ops of seeds 7 and 8 share digest %s", a)
	}
}

// TestExpectedInvariantsCoverBothSeeds checks that expected.json pins the
// default seed and the held-out seed of every workload.
func TestExpectedInvariantsCoverBothSeeds(t *testing.T) {
	var expected map[string]map[string]invariant
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		t.Fatal(err)
	}
	for name := range workloads {
		for _, seed := range []string{"1", heldOutSeed} {
			inv, ok := expected[name][seed]
			if !ok || inv.OpDigest == "" || inv.Counts.Runs == 0 || inv.Counts.Events == 0 {
				t.Errorf("expected.json has no invariant for %s seed %s: %+v", name, seed, inv)
			}
		}
	}
}

func TestLayerSumCheckFailsOnMismatch(t *testing.T) {
	if _, err := layerGap(map[string]float64{"a": 60, "b": 35}, 100, 0.1); err != nil {
		t.Errorf("5%% gap within a 10%% tolerance failed: %v", err)
	}
	gap, err := layerGap(map[string]float64{"a": 60, "b": 20}, 100, 0.1)
	if err == nil {
		t.Errorf("20%% gap within a 10%% tolerance passed")
	}
	if gap > -0.19 || gap < -0.21 {
		t.Errorf("gap = %g, want -0.2", gap)
	}
}

// TestFleetCacheClasses runs ops of every class through a live fleet: the
// repeat class must be served from the result cache every time and the
// fresh classes never.
func TestFleetCacheClasses(t *testing.T) {
	ctx := context.Background()
	base, err := fleetCircuits()
	if err != nil {
		t.Fatal(err)
	}
	const seed = 3
	hot := hotSet(seed, base)
	f, err := startFleet(ctx, base, hot)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	hits, calls := map[int]int{}, map[int]int{}
	for i := 0; i < 300; i++ {
		op, err := opAt(seed, i, base, hot)
		if err != nil {
			t.Fatal(err)
		}
		c := f.callers[i%len(f.callers)]
		if op.Class == classUpload {
			if _, err := c.UploadCircuit(ctx, api.UploadRequest{Netlist: op.Upload}); err != nil {
				t.Fatalf("op %d upload: %v", i, err)
			}
			continue
		}
		rep, err := c.Simulate(ctx, api.SimRequest{Circuit: base[op.Circuit].id, Request: op.Req})
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		calls[op.Class]++
		if rep.Cached {
			hits[op.Class]++
		}
	}
	for _, class := range []int{classUnique, classWave, classRepeat} {
		want := 0
		if class == classRepeat {
			want = calls[class]
		}
		if calls[class] == 0 || hits[class] != want {
			t.Errorf("%s: %d of %d calls hit the result cache, want %d", classNames[class], hits[class], calls[class], want)
		}
	}
	t.Logf("calls by class: %v, hits: %v", calls, hits)
}
