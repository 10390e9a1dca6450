package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"halotis/internal/cellib"
	"halotis/internal/circ"
	"halotis/internal/circuits"
	"halotis/internal/sim"
	"halotis/internal/stimuli"
)

// modelMakespan replays the sequential fire sequence (recorded as the gate
// index of every processed event, in pop order) against one partitioning:
// each partition executes one event per step, and an event cannot start
// before the latest step any of its upstream partitions has reached —
// exactly the dependency structure the mailbox protocol enforces, with
// message latency taken as zero. The result is the critical-path length of
// the run on P processors.
func modelMakespan(fires []int32, pt *circ.Partitioning) uint64 {
	last := make([]uint64, pt.K)
	for _, g := range fires {
		p := pt.GatePart[g]
		s := last[p]
		for _, q := range pt.Incoming[p] {
			if last[q] > s {
				s = last[q]
			}
		}
		last[p] = s + 1
	}
	var makespan uint64
	for _, s := range last {
		if s > makespan {
			makespan = s
		}
	}
	return makespan
}

// sameTransitions reports the first net whose transitions differ between
// two runs of one circuit, or nil when every net matches bit for bit.
func sameTransitions(want, got *sim.Result) error {
	ir := want.IR()
	for n := int32(0); n < int32(ir.NumNets()); n++ {
		wt := want.WaveformAt(n).Transitions()
		gt := got.WaveformAt(n).Transitions()
		if len(gt) != len(wt) {
			return fmt.Errorf("net %s: %d transitions diverged from sequential %d", ir.NetName[n], len(gt), len(wt))
		}
		for i := range wt {
			if gt[i] != wt[i] {
				return fmt.Errorf("net %s: transition %d diverged from sequential:\n got  %+v\n want %+v",
					ir.NetName[n], i, gt[i], wt[i])
			}
		}
	}
	return nil
}

// partitionExperiment sweeps partition count against circuit size on the
// scalable families and measures the partitioned kernel against the
// sequential baseline. Every configuration is first checked bit-identical
// to the baseline (stats and every net's transitions) before it is timed,
// so the benchmark doubles as a large-circuit differential test; famFilter
// restricts the sweep to one family ("" = all). Measured speedup says more
// about the host than the kernel on a machine with fewer cores than
// partitions; the critical-path model column bounds what the partitioning
// could deliver given enough cores.
func partitionExperiment(lib *cellib.Library, sizesFlag, countsFlag, famFilter string, runs int) (string, error) {
	if runs < 1 {
		return "", fmt.Errorf("-partruns must be >= 1, got %d", runs)
	}
	sizes, err := parseSizes(sizesFlag)
	if err != nil {
		return "", err
	}
	counts, err := parseSizes(countsFlag)
	if err != nil {
		return "", err
	}
	for _, c := range counts {
		if c > sim.MaxPartitions {
			return "", fmt.Errorf("-partcounts: %d exceeds the engine maximum %d", c, sim.MaxPartitions)
		}
	}
	const (
		vectors = 8
		period  = 5.0
		slew    = 0.2
	)
	tEnd := period * float64(vectors+1)
	m := sim.DDM

	var b strings.Builder
	fmt.Fprintf(&b, "Partitioned kernel (%d random vectors @ %gns, %d runs/point, GOMAXPROCS=%d, %s)\n",
		vectors, period, runs, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(&b, "%-14s %8s %3s %12s %9s %12s %8s %8s\n",
		"family", "gates", "P", "events/run", "bnd.pins", "ns/run", "meas.x", "model.x")

	for _, fam := range circuits.ScalableFamilies() {
		if famFilter != "" && fam.Name != famFilter {
			continue
		}
		for _, target := range sizes {
			ckt, err := fam.Build(lib, target)
			if err != nil {
				return "", fmt.Errorf("%s @ %d gates: %w", fam.Name, target, err)
			}
			ir := circ.Compile(ckt)
			st, err := stimuli.RandomStimulusFor(ckt, vectors, period, slew, int64(target))
			if err != nil {
				return "", err
			}

			// Baseline pass: record the fire sequence for the schedule
			// model off the warm-up run, then time the steady state.
			seq := sim.NewEngine(ckt, sim.Options{Model: m, Partitions: 1})
			var fires []int32
			seq.SetFireHook(func(pin int32, t float64) { fires = append(fires, ir.Pins[pin].Gate) })
			base, err := seq.Run(st, tEnd)
			if err != nil {
				return "", fmt.Errorf("%s @ %d gates: %w", fam.Name, target, err)
			}
			baseStats := base.Stats
			seq.SetFireHook(nil)
			events := baseStats.EventsProcessed
			if events == 0 {
				return "", fmt.Errorf("%s @ %d gates: degenerate workload, nothing fired", fam.Name, target)
			}
			var baseNsPerRun float64

			for _, p := range counts {
				eng := sim.NewEngine(ckt, sim.Options{Model: m, Partitions: p})
				res, err := eng.Run(st, tEnd) // warm-up grows all buffers
				if err != nil {
					return "", fmt.Errorf("%s @ %d gates P=%d: %w", fam.Name, target, p, err)
				}
				if res.Stats != baseStats {
					return "", fmt.Errorf("%s @ %d gates P=%d: stats diverged from sequential:\n got  %+v\n want %+v",
						fam.Name, target, p, res.Stats, baseStats)
				}
				if err := sameTransitions(base, res); err != nil {
					return "", fmt.Errorf("%s @ %d gates P=%d: %w", fam.Name, target, p, err)
				}
				start := time.Now()
				for i := 0; i < runs; i++ {
					if _, err := eng.Run(st, tEnd); err != nil {
						return "", err
					}
				}
				nsPerRun := float64(time.Since(start).Nanoseconds()) / float64(runs)

				// The P=1 baseline has no boundary and a makespan of
				// every event; measured speedup is against it.
				speedup, modelSpeedup, boundaryPins := 0.0, 1.0, 0
				if p == 1 {
					baseNsPerRun = nsPerRun
				} else {
					pt := ir.Partition(p)
					boundaryPins = pt.BoundaryPins
					modelSpeedup = float64(events) / float64(modelMakespan(fires, pt))
				}
				if baseNsPerRun > 0 {
					speedup = baseNsPerRun / nsPerRun
				}
				fmt.Fprintf(&b, "%-14s %8d %3d %12d %9d %12.0f %8.2f %8.2f\n",
					fam.Name, len(ckt.Gates), p, events, boundaryPins, nsPerRun, speedup, modelSpeedup)
			}
		}
	}
	return b.String(), nil
}
