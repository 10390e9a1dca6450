// Package paper regenerates every table and figure of the HALOTIS paper's
// evaluation (DATE 2001): Fig. 1 (inertial-delay wrong results), Fig. 3
// (transition vs. per-input events), Fig. 5 (4x4 multiplier structure),
// Fig. 6 and Fig. 7 (multiplication-sequence waveforms under the analog
// reference, HALOTIS-DDM and HALOTIS-CDM), Table 1 (event and filtered
// event counts) and Table 2 (CPU times).
//
// Each experiment returns a structured result plus a formatted text report;
// cmd/halobench prints the reports and bench_test.go times the underlying
// runs.
package paper

import (
	"fmt"
	"strings"

	"halotis/internal/analog"
	"halotis/internal/cellib"
	"halotis/internal/circuits"
	"halotis/internal/netlist"
	"halotis/internal/sim"
	"halotis/internal/stimuli"
)

// SimHorizon is the simulated time per multiplication sequence, ns. The
// paper's figures show 0..25 ns; the extra tail lets the final vector
// settle through the full array depth before settled outputs are compared.
const SimHorizon = 28.0

// Window is the figure display window, ns (as in the paper).
const Window = 25.0

// InputSlew is the primary-input transition time used by the experiments,
// ns.
const InputSlew = 0.2

// Workload bundles one of the paper's two input sequences.
type Workload struct {
	// Name as printed in the tables.
	Name string
	// Pairs are the AxB operands.
	Pairs []stimuli.MultiplierPair
}

// Workloads returns the two evaluation sequences.
func Workloads() []Workload {
	return []Workload{
		{Name: "0x0, 7x7, 5xA, Ex6, FxF", Pairs: stimuli.PaperSequence1()},
		{Name: "0x0, FxF, 0x0, FxF, 0x0", Pairs: stimuli.PaperSequence2()},
	}
}

// buildMultiplier constructs the Fig. 5 circuit.
func buildMultiplier(lib *cellib.Library) (*netlist.Circuit, error) {
	return circuits.Multiplier4x4(lib)
}

// multiplierStimulus builds the drive for a workload.
func multiplierStimulus(w Workload) (sim.Stimulus, error) {
	return stimuli.MultiplierSequence(w.Pairs, 4, 4, stimuli.PaperPeriod, InputSlew)
}

// runLogic executes one logic-timing run.
func runLogic(ckt *netlist.Circuit, st sim.Stimulus, model sim.Model) (*sim.Result, error) {
	return sim.NewEngine(ckt, sim.Options{Model: model}).Run(st, SimHorizon)
}

// runAnalog executes the electrical reference.
func runAnalog(ckt *netlist.Circuit, st sim.Stimulus, dt float64) (*analog.Result, error) {
	return analog.Run(ckt, st, SimHorizon, analog.Options{Dt: dt})
}

// outputNames returns s7..s0, the row order of the paper's figures.
func outputNames() []string {
	names := make([]string, 8)
	for i := 0; i < 8; i++ {
		names[i] = fmt.Sprintf("s%d", 7-i)
	}
	return names
}

// decodeProduct reads the settled product from an output logic map.
func decodeProduct(out map[string]bool) int {
	p := 0
	for k := 0; k < 8; k++ {
		if out[fmt.Sprintf("s%d", k)] {
			p |= 1 << k
		}
	}
	return p
}

// sectionHeader formats a report title.
func sectionHeader(title string) string {
	line := strings.Repeat("=", len(title))
	return fmt.Sprintf("%s\n%s\n", title, line)
}
