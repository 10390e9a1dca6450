package main

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"halotis/api"
	"halotis/internal/cellib"
	"halotis/internal/circuits"
	"halotis/internal/netfmt"
	"halotis/internal/netlist"
)

// Stimulus shape shared by every workload: vector 0 is each input's initial
// level and vector k > 0 is applied at k*vectorPeriod ns; the horizon
// leaves settleMargin ns after the last vector, so every output has settled
// to the zero-delay value of the last vector by t_end (the report check
// relies on it; with a 10 ns margin the 52x52 multiplier is not settled).
const (
	vectorPeriod = 5.0
	inputSlew    = 0.2
	settleMargin = 60.0
)

// Seed streams: every generated input is drawn from PCG(seed, stream), so
// inputs for different purposes never share random numbers.
const (
	streamKernelOps = 1
	streamHotSet    = 2
	streamFleetOps  = 1 << 32 // + op index
)

func rngFor(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// vectorOp is one generated simulation request together with the last
// input vector it applies, which is what its outputs must settle to.
type vectorOp struct {
	Req  api.Request
	Last map[string]bool
}

// randomOp draws vectors random vectors over the inputs (independent fair
// coin per input per vector) and renders them as a wire stimulus.
func randomOp(rng *rand.Rand, inputs []string, vectors int) vectorOp {
	st := make(api.Stimulus, len(inputs))
	last := make(map[string]bool, len(inputs))
	for _, in := range inputs {
		level := rng.IntN(2) == 1
		w := api.InputWave{Init: level}
		for k := 1; k < vectors; k++ {
			if next := rng.IntN(2) == 1; next != level {
				w.Edges = append(w.Edges, api.Edge{T: float64(k) * vectorPeriod, Rising: next, Slew: inputSlew})
				level = next
			}
		}
		st[in] = w
		last[in] = level
	}
	return vectorOp{
		Req:  api.Request{TEnd: float64(vectors-1)*vectorPeriod + settleMargin, Stimulus: st},
		Last: last,
	}
}

// kernelOps draws the n distinct requests a kernel workload cycles through.
func kernelOps(seed int64, inputs []string, n, vectors int) []vectorOp {
	rng := rngFor(seed, streamKernelOps)
	ops := make([]vectorOp, n)
	for i := range ops {
		ops[i] = randomOp(rng, inputs, vectors)
	}
	return ops
}

func library() *cellib.Library { return cellib.Default06() }

// familyText builds an instance of one of the repository's scalable circuit
// families and serializes it: the program only ever sees the text.
func familyText(family string, gates int) (string, error) {
	f := circuits.FamilyByName(family)
	if f == nil {
		return "", fmt.Errorf("unknown circuit family %q", family)
	}
	ckt, err := f.Build(library(), gates)
	if err != nil {
		return "", fmt.Errorf("build %s@%d: %w", family, gates, err)
	}
	return circuitText(ckt)
}

func circuitText(ckt *netlist.Circuit) (string, error) {
	var b strings.Builder
	if err := netfmt.WriteCircuit(&b, ckt); err != nil {
		return "", fmt.Errorf("write %s: %w", ckt.Name, err)
	}
	return b.String(), nil
}

func parseText(text string) (*netlist.Circuit, error) {
	if netfmt.SniffFormat(text) == netfmt.FormatBench {
		return netfmt.ParseBench(strings.NewReader(text), library())
	}
	return netfmt.ParseCircuit(strings.NewReader(text), library())
}

func inputNames(ckt *netlist.Circuit) []string {
	names := make([]string, len(ckt.Inputs))
	for i, in := range ckt.Inputs {
		names[i] = in.Name
	}
	return names
}
