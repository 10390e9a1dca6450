package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"halotis/internal/cellib"
	"halotis/internal/circuits"
	"halotis/internal/sim"
	"halotis/internal/stimuli"
)

// parseSizes parses the -scalesizes flag ("1000,3000,10000").
func parseSizes(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad size %q in -scalesizes", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-scalesizes lists no sizes")
	}
	return out, nil
}

// scaleExperiment sweeps circuit size across the scalable families under
// random stimulus and measures kernel ns/event for DDM and CDM. Every size
// reuses one warm engine per model, so the numbers are the steady-state
// event-loop cost, not setup.
func scaleExperiment(lib *cellib.Library, sizesFlag string, runs int) (string, error) {
	if runs < 1 {
		return "", fmt.Errorf("-scaleruns must be >= 1, got %d", runs)
	}
	sizes, err := parseSizes(sizesFlag)
	if err != nil {
		return "", err
	}
	const (
		vectors = 8
		period  = 5.0
		slew    = 0.2
	)
	tEnd := period * float64(vectors+1)

	var b strings.Builder
	fmt.Fprintf(&b, "Size scaling (%d random vectors @ %gns, %d runs/point, %s)\n",
		vectors, period, runs, runtime.Version())
	fmt.Fprintf(&b, "%-14s %8s %7s %6s %14s %12s %12s\n",
		"family", "gates", "depth", "model", "events/run", "ns/run", "ns/event")

	for _, fam := range circuits.ScalableFamilies() {
		for _, target := range sizes {
			ckt, err := fam.Build(lib, target)
			if err != nil {
				return "", fmt.Errorf("%s @ %d gates: %w", fam.Name, target, err)
			}
			st, err := stimuli.RandomStimulusFor(ckt, vectors, period, slew, int64(target))
			if err != nil {
				return "", err
			}
			for _, m := range []sim.Model{sim.DDM, sim.CDM} {
				eng := sim.NewEngine(ckt, sim.Options{Model: m})
				res, err := eng.Run(st, tEnd) // warm-up grows all buffers
				if err != nil {
					return "", fmt.Errorf("%s @ %d gates %v: %w", fam.Name, target, m, err)
				}
				events := res.Stats.EventsProcessed
				start := time.Now()
				for i := 0; i < runs; i++ {
					if _, err := eng.Run(st, tEnd); err != nil {
						return "", err
					}
				}
				nsPerRun := float64(time.Since(start).Nanoseconds()) / float64(runs)
				nsPerEvent := 0.0
				if events > 0 {
					nsPerEvent = nsPerRun / float64(events)
				}
				fmt.Fprintf(&b, "%-14s %8d %7d %6s %14d %12.0f %12.1f\n",
					fam.Name, len(ckt.Gates), ckt.Depth(), shortModel(m), events, nsPerRun, nsPerEvent)
			}
		}
	}
	return b.String(), nil
}

func shortModel(m sim.Model) string {
	if m == sim.DDM {
		return "DDM"
	}
	return "CDM"
}
