package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"halotis/internal/cellib"
	"halotis/internal/circ"
	"halotis/internal/circuits"
	"halotis/internal/sim"
	"halotis/internal/stimuli"
)

// PartitionPoint is one measured (family, size, partition count)
// configuration of the partitioned-kernel sweep, serialized into
// BENCH_PR7.json. Every point records the GOMAXPROCS it ran under —
// measured speedups are only meaningful against the core budget — and the
// critical-path model numbers, which bound what the partitioning could
// deliver given enough cores (on a single-core runner the measured speedup
// says more about the host than the kernel).
type PartitionPoint struct {
	Family  string `json:"family"`
	Circuit string `json:"circuit"`
	Gates   int    `json:"gates"`
	Nets    int    `json:"nets"`
	Depth   int    `json:"depth"`
	Model   string `json:"model"`
	// Partitions is the requested count; 1 is the sequential baseline.
	Partitions int    `json:"partitions"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Runs       int    `json:"runs"`
	Events     uint64 `json:"events_per_run"`
	// Boundary stats of the partitioning (zero for the P=1 baseline).
	BoundaryNets  int `json:"boundary_nets"`
	BoundaryEdges int `json:"boundary_edges"`
	BoundaryPins  int `json:"boundary_pins"`
	// Measured wall-clock numbers.
	NsPerRun   float64 `json:"ns_per_run"`
	NsPerEvent float64 `json:"ns_per_event"`
	EventsPerS float64 `json:"events_per_sec"`
	// Speedup is measured against this point's P=1 baseline run.
	Speedup float64 `json:"speedup"`
	// ModelMakespan is the critical-path length, in events, of the
	// sequential fire sequence scheduled onto P single-event-per-step
	// processors with partition-to-partition dependency edges; the
	// replayed lower bound on parallel steps.
	ModelMakespan uint64 `json:"model_makespan"`
	// ModelSpeedup = events / makespan: the parallelism the partitioning
	// exposes, independent of how many cores the host actually has.
	ModelSpeedup float64 `json:"model_speedup"`
	// ModelEventsPerS projects the baseline event rate through the model
	// speedup: the events/sec this partitioning supports with >= P cores.
	ModelEventsPerS float64 `json:"model_events_per_sec"`
}

// PartitionReport is the JSON document emitted by -exp partition: measured
// and modeled speedup of the partitioned kernel vs partition count, across
// circuit sizes at and above 100k gates.
type PartitionReport struct {
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Vectors    int              `json:"vectors"`
	PeriodNs   float64          `json:"period_ns"`
	Sizes      []int            `json:"target_gate_counts"`
	Counts     []int            `json:"partition_counts"`
	Points     []PartitionPoint `json:"points"`
}

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
// sequential baseline, rendering a table and optionally writing the JSON
// record (BENCH_PR7.json). Every configuration is first checked
// bit-identical to the baseline (stats and every net's transitions) before
// it is timed, so the benchmark doubles as a large-circuit differential
// test; famFilter restricts the sweep to one family ("" = all).
func partitionExperiment(lib *cellib.Library, jsonPath, sizesFlag, countsFlag, famFilter string, runs int) (string, error) {
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

	rep := PartitionReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Vectors:    vectors,
		PeriodNs:   period,
		Sizes:      sizes,
		Counts:     counts,
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Partitioned kernel (%d random vectors @ %gns, %d runs/point, GOMAXPROCS=%d, %s)\n",
		vectors, period, runs, rep.GOMAXPROCS, rep.GoVersion)
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
			var baseNsPerRun, baseEventsPerS float64

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
				elapsed := float64(time.Since(start).Nanoseconds())

				pp := PartitionPoint{
					Family:     fam.Name,
					Circuit:    ckt.Name,
					Gates:      len(ckt.Gates),
					Nets:       ir.NumNets(),
					Depth:      ckt.Depth(),
					Model:      m.String(),
					Partitions: p,
					GOMAXPROCS: rep.GOMAXPROCS,
					Runs:       runs,
					Events:     events,
					NsPerRun:   elapsed / float64(runs),
				}
				pp.NsPerEvent = pp.NsPerRun / float64(events)
				pp.EventsPerS = 1e9 / pp.NsPerEvent
				if p == 1 {
					baseNsPerRun, baseEventsPerS = pp.NsPerRun, pp.EventsPerS
					pp.Speedup = 1
					pp.ModelMakespan = events
					pp.ModelSpeedup = 1
					pp.ModelEventsPerS = pp.EventsPerS
				} else {
					pt := ir.Partition(p)
					pp.BoundaryNets = pt.BoundaryNets
					pp.BoundaryEdges = pt.BoundaryEdges
					pp.BoundaryPins = pt.BoundaryPins
					pp.ModelMakespan = modelMakespan(fires, pt)
					pp.ModelSpeedup = float64(events) / float64(pp.ModelMakespan)
					if baseNsPerRun > 0 {
						pp.Speedup = baseNsPerRun / pp.NsPerRun
						pp.ModelEventsPerS = baseEventsPerS * pp.ModelSpeedup
					}
				}
				rep.Points = append(rep.Points, pp)
				fmt.Fprintf(&b, "%-14s %8d %3d %12d %9d %12.0f %8.2f %8.2f\n",
					pp.Family, pp.Gates, pp.Partitions, pp.Events, pp.BoundaryPins,
					pp.NsPerRun, pp.Speedup, pp.ModelSpeedup)
			}
		}
	}

	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "\nwrote %s\n", jsonPath)
	}
	return b.String(), nil
}
