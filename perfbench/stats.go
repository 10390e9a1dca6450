package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one or two unlucky samples, not a tail.
const minBeyond = 10

// quantile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule. It refuses a tail the sample cannot support: at least
// minBeyond samples must lie above the returned rank.
func quantile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("quantile: no samples")
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	rank = max(rank, 0)
	if q > 0.5 && n-1-rank < minBeyond {
		return 0, fmt.Errorf("quantile: p%g of %d samples has %d beyond it, want >= %d",
			100*q, n, n-1-rank, minBeyond)
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	return s[rank], nil
}

// median is the 0.5-quantile; it never fails on a non-empty sample.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	m, _ := quantile(samples, 0.5)
	return m
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// layerGap compares the sum of a workload's mean layer times with the mean
// end-to-end time they decompose and fails when they disagree by more than
// tol (a share of the end-to-end figure). It returns the signed gap
// (sum/total - 1) either way.
func layerGap(parts map[string]float64, total, tol float64) (float64, error) {
	if total <= 0 {
		return 0, fmt.Errorf("layer sum: end-to-end median %g is not positive", total)
	}
	var all float64
	for _, v := range parts {
		all += v
	}
	gap := all/total - 1
	if math.Abs(gap) > tol {
		return gap, fmt.Errorf("layer sum: layers add to %.4g, end to end is %.4g (gap %+.1f%%, tolerance %.0f%%)",
			all, total, 100*gap, 100*tol)
	}
	return gap, nil
}

// digest fingerprints any JSON-encodable value: the op sequences are
// compared across runs and seeds by it.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("digest: %v", err)) // only plain data is digested
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// call is one timed call of a timed phase.
type call struct {
	end time.Duration // since the phase started
	ms  float64       // latency
}

// rounds is the number of equal-length rounds a timed phase is cut into.
const rounds = 10

// perRound splits calls (in any order) into rounds of equal length by end
// time and applies f to each round. If f fails on a round (too few samples
// for a tail), every round's figure is f of all calls together.
func perRound(calls []call, wall time.Duration, f func(lat []float64, d time.Duration) (float64, error)) ([]float64, error) {
	byRound := make([][]float64, rounds)
	var all []float64
	for _, c := range calls {
		r := min(int(int64(c.end)*rounds/int64(wall)), rounds-1)
		byRound[r] = append(byRound[r], c.ms)
		all = append(all, c.ms)
	}
	vals := make([]float64, rounds)
	for r := range byRound {
		v, err := f(byRound[r], wall/rounds)
		if err != nil {
			v, err = f(all, wall)
			return []float64{v}, err
		}
		vals[r] = v
	}
	return vals, nil
}

// figure applies f to every round of a timed phase and returns the
// better-quartile round's value (see betterQuartile).
func figure(calls []call, wall time.Duration, higherIsBetter bool, f func(lat []float64, d time.Duration) (float64, error)) (float64, error) {
	vals, err := perRound(calls, wall, f)
	return betterQuartile(vals, higherIsBetter), err
}

// percentile is a round function for figure: the q-quantile of latency.
func percentile(q float64) func([]float64, time.Duration) (float64, error) {
	return func(lat []float64, _ time.Duration) (float64, error) { return quantile(lat, q) }
}

func sum(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}

func mean(vals []float64) float64 { return sum(vals) / float64(max(len(vals), 1)) }

// betterQuartile returns the figure a quarter of the way from the best
// end: the third best of ten rounds. Time stolen by the host (measured at
// 5-58% per second on the reference VM) only ever makes a round slower, so
// the better rounds measure the program and the worse ones the host; the
// quartile rather than the best keeps one lucky round from setting it.
func betterQuartile(vals []float64, higherIsBetter bool) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	if higherIsBetter {
		slices.Reverse(s)
	}
	return s[max(int(math.Ceil(0.25*float64(len(s))))-1, 0)]
}
