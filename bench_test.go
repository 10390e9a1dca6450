// Benchmarks regenerating the timing rows of every table and figure in the
// paper's evaluation (run with `go test -bench=. -benchmem`):
//
//	Fig. 1  — two-threshold circuit under DDM / classic / analog
//	Fig. 3  — transition-to-events scheduling
//	Fig. 5  — multiplier construction + exhaustive verification
//	Fig. 6  — sequence 1 waveforms under analog / DDM / CDM
//	Fig. 7  — sequence 2 waveforms under analog / DDM / CDM
//	Table 1 — DDM vs CDM event statistics per sequence
//	Table 2 — CPU time per simulator per sequence (the benchmark times
//	          themselves are the table entries)
package halotis_test

import (
	"fmt"
	"testing"

	"halotis"
)

var benchLib = halotis.DefaultLibrary()

// mulStimulus builds the drive for one paper sequence.
func mulStimulus(b *testing.B, pairs []halotis.MultiplierPair) halotis.Stimulus {
	b.Helper()
	st, err := halotis.MultiplierSequence(pairs, 4, 4, halotis.PaperPeriod, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

func mulCircuit(b *testing.B) *halotis.Circuit {
	b.Helper()
	ckt, err := halotis.Multiplier4x4(benchLib)
	if err != nil {
		b.Fatal(err)
	}
	return ckt
}

// benchLogic times one logic-model run of the multiplier workload through
// the one-shot Simulate path (fresh engine per iteration).
func benchLogic(b *testing.B, pairs []halotis.MultiplierPair, m halotis.Model) {
	ckt := mulCircuit(b)
	st := mulStimulus(b, pairs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := halotis.Simulate(ckt, st, 28, halotis.WithModel(m))
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Stats.EventsProcessed
	}
}

// benchEngineReuse times one workload through a reused Engine: after the
// warm-up run, iterations must report 0 allocs/op — the steady-state event
// loop is allocation-free.
func benchEngineReuse(b *testing.B, ckt *halotis.Circuit, st halotis.Stimulus, tEnd float64, m halotis.Model) {
	eng := halotis.NewEngine(ckt, halotis.WithModel(m))
	if _, err := eng.Run(st, tEnd); err != nil { // warm-up grows all buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(st, tEnd)
		if err != nil {
			b.Fatal(err)
		}
		events = res.Stats.EventsProcessed
	}
	b.StopTimer()
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
	}
}

// benchBatch times SimulateBatch over n copies of the paper sequence,
// reporting per-stimulus throughput.
func benchBatch(b *testing.B, pairs []halotis.MultiplierPair, m halotis.Model, n, workers int) {
	ckt := mulCircuit(b)
	st := mulStimulus(b, pairs)
	stimuli := make([]halotis.Stimulus, n)
	for i := range stimuli {
		stimuli[i] = st
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := halotis.SimulateBatch(ckt, stimuli, 28,
			halotis.WithModel(m), halotis.WithWorkers(workers)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/stimulus")
}

// benchAnalog times the electrical reference on the same workload. The
// integration step is coarsened to keep iterations tractable; the orders-of-
// magnitude gap against the logic benches is unaffected.
func benchAnalog(b *testing.B, pairs []halotis.MultiplierPair) {
	ckt := mulCircuit(b)
	st := mulStimulus(b, pairs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := halotis.SimulateAnalog(ckt, st, 28, halotis.AnalogOptions{Dt: 0.002}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 2 rows (and the engine runs behind Figs. 6 and 7) ---

func BenchmarkTable2Seq1DDM(b *testing.B)    { benchLogic(b, halotis.PaperSequence1(), halotis.DDM) }
func BenchmarkTable2Seq1CDM(b *testing.B)    { benchLogic(b, halotis.PaperSequence1(), halotis.CDM) }
func BenchmarkTable2Seq1Analog(b *testing.B) { benchAnalog(b, halotis.PaperSequence1()) }
func BenchmarkTable2Seq2DDM(b *testing.B)    { benchLogic(b, halotis.PaperSequence2(), halotis.DDM) }
func BenchmarkTable2Seq2CDM(b *testing.B)    { benchLogic(b, halotis.PaperSequence2(), halotis.CDM) }
func BenchmarkTable2Seq2Analog(b *testing.B) { benchAnalog(b, halotis.PaperSequence2()) }

// --- Engine reuse: Table 2 workloads without per-run setup ---

// benchEngineReuseMul runs benchEngineReuse on one paper sequence through
// the 4x4 multiplier.
func benchEngineReuseMul(b *testing.B, pairs []halotis.MultiplierPair, m halotis.Model) {
	benchEngineReuse(b, mulCircuit(b), mulStimulus(b, pairs), 28, m)
}

func BenchmarkEngineReuseSeq1DDM(b *testing.B) {
	benchEngineReuseMul(b, halotis.PaperSequence1(), halotis.DDM)
}
func BenchmarkEngineReuseSeq1CDM(b *testing.B) {
	benchEngineReuseMul(b, halotis.PaperSequence1(), halotis.CDM)
}
func BenchmarkEngineReuseSeq2DDM(b *testing.B) {
	benchEngineReuseMul(b, halotis.PaperSequence2(), halotis.DDM)
}
func BenchmarkEngineReuseSeq2CDM(b *testing.B) {
	benchEngineReuseMul(b, halotis.PaperSequence2(), halotis.CDM)
}

// BenchmarkEngineReuseC17DDM runs two random vectors through c17, a run of
// a few microseconds, where the kernel's fixed per-run cost (engine and
// lane reset, stimulus application, result assembly) is visible next to
// the event loop; the multiplier sequences above hide it.
func BenchmarkEngineReuseC17DDM(b *testing.B) {
	ckt, err := halotis.C17(benchLib)
	if err != nil {
		b.Fatal(err)
	}
	st, err := halotis.RandomStimulus(ckt, 2, halotis.PaperPeriod, 0.2, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchEngineReuse(b, ckt, st, 3*halotis.PaperPeriod, halotis.DDM)
}

// BenchmarkEngineReuseDAG1kDDM and BenchmarkEngineReuseMult8x8DDM run three
// random vectors through the two larger circuits of the serve-fleet
// benchmark workload: the 1k-gate random DAG of the scalable families and
// the 8x8 array multiplier.
func BenchmarkEngineReuseDAG1kDDM(b *testing.B) {
	for _, fam := range halotis.ScalableFamilies() {
		if fam.Name == "random-dag" {
			ckt, err := fam.Build(benchLib, 1000)
			if err != nil {
				b.Fatal(err)
			}
			benchEngineReuse3(b, ckt)
			return
		}
	}
	b.Fatal("no random-dag family")
}

func BenchmarkEngineReuseMult8x8DDM(b *testing.B) {
	ckt, err := halotis.Multiplier(benchLib, 8, 8)
	if err != nil {
		b.Fatal(err)
	}
	benchEngineReuse3(b, ckt)
}

// benchEngineReuse3 runs benchEngineReuse under DDM on three random
// vectors, one paper period apart.
func benchEngineReuse3(b *testing.B, ckt *halotis.Circuit) {
	st, err := halotis.RandomStimulus(ckt, 3, halotis.PaperPeriod, 0.2, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchEngineReuse(b, ckt, st, 4*halotis.PaperPeriod, halotis.DDM)
}

// --- Batch runner: 64-stimulus sweeps, sequential vs parallel ---

func BenchmarkBatch64Seq1Workers1(b *testing.B) {
	benchBatch(b, halotis.PaperSequence1(), halotis.DDM, 64, 1)
}
func BenchmarkBatch64Seq1WorkersMax(b *testing.B) {
	benchBatch(b, halotis.PaperSequence1(), halotis.DDM, 64, 0)
}

// --- Table 1: one iteration = the DDM+CDM pair a table row derives from ---

func benchTable1(b *testing.B, pairs []halotis.MultiplierPair) {
	ckt := mulCircuit(b)
	st := mulStimulus(b, pairs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ddm, err := halotis.Simulate(ckt, st, 28, halotis.WithModel(halotis.DDM))
		if err != nil {
			b.Fatal(err)
		}
		cdm, err := halotis.Simulate(ckt, st, 28, halotis.WithModel(halotis.CDM))
		if err != nil {
			b.Fatal(err)
		}
		if cdm.Stats.EventsProcessed <= ddm.Stats.EventsProcessed {
			b.Fatal("table 1 shape violated: CDM should process more events")
		}
	}
}

func BenchmarkTable1Seq1(b *testing.B) { benchTable1(b, halotis.PaperSequence1()) }
func BenchmarkTable1Seq2(b *testing.B) { benchTable1(b, halotis.PaperSequence2()) }

// --- Fig. 6 / Fig. 7: per-engine runs of the two waveform workloads ---

func BenchmarkFig6DDM(b *testing.B)    { benchLogic(b, halotis.PaperSequence1(), halotis.DDM) }
func BenchmarkFig6CDM(b *testing.B)    { benchLogic(b, halotis.PaperSequence1(), halotis.CDM) }
func BenchmarkFig6Analog(b *testing.B) { benchAnalog(b, halotis.PaperSequence1()) }
func BenchmarkFig7DDM(b *testing.B)    { benchLogic(b, halotis.PaperSequence2(), halotis.DDM) }
func BenchmarkFig7CDM(b *testing.B)    { benchLogic(b, halotis.PaperSequence2(), halotis.CDM) }
func BenchmarkFig7Analog(b *testing.B) { benchAnalog(b, halotis.PaperSequence2()) }

// --- Fig. 1: the two-threshold circuit under the three engines ---

func fig1Setup(b *testing.B) (*halotis.Circuit, halotis.Stimulus) {
	b.Helper()
	lib := benchLib
	bb := halotis.NewBuilder("fig1", lib)
	bb.Input("in")
	bb.AddGate("g0", halotis.INV, "n", "in")
	bb.AddGate("g1", halotis.INV, "out1", "n")
	bb.AddGate("g2", halotis.INV, "out2", "n")
	bb.SetPinVT("g1", 0, 1.7)
	bb.SetPinVT("g2", 0, 3.3)
	bb.Output("out1")
	bb.Output("out2")
	ckt, err := bb.Build()
	if err != nil {
		b.Fatal(err)
	}
	st, err := halotis.PulseTrain("in", 2, 0.14, 1, 1, 0.12)
	if err != nil {
		b.Fatal(err)
	}
	return ckt, st
}

func BenchmarkFig1DDM(b *testing.B) {
	ckt, st := fig1Setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := halotis.Simulate(ckt, st, 15); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1Classic(b *testing.B) {
	ckt, st := fig1Setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := halotis.SimulateClassic(ckt, st, 15); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1Analog(b *testing.B) {
	ckt, st := fig1Setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := halotis.SimulateAnalog(ckt, st, 15, halotis.AnalogOptions{Dt: 0.002}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 3: transition-to-event scheduling cost ---

func BenchmarkFig3Events(b *testing.B) {
	lib := benchLib
	bb := halotis.NewBuilder("fig3", lib)
	bb.Input("out")
	for i, vt := range []float64{1.3, 3.8, 2.6} {
		g := fmt.Sprintf("G%d", i+1)
		bb.AddGate(g, halotis.INV, "y"+g, "out")
		bb.SetPinVT(g, 0, vt)
		bb.Output("y" + g)
	}
	ckt, err := bb.Build()
	if err != nil {
		b.Fatal(err)
	}
	st := halotis.Stimulus{"out": halotis.InputWave{Init: true, Edges: []halotis.InputEdge{
		{Time: 1, Rising: false, Slew: 1.0},
	}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := halotis.Simulate(ckt, st, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 5: multiplier construction + exhaustive verification ---

func BenchmarkFig5BuildVerify(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ckt, err := halotis.Multiplier4x4(benchLib)
		if err != nil {
			b.Fatal(err)
		}
		for a := 0; a < 16; a++ {
			for bb := 0; bb < 16; bb++ {
				in := map[string]bool{}
				for k := 0; k < 4; k++ {
					in[fmt.Sprintf("a%d", k)] = a>>k&1 == 1
					in[fmt.Sprintf("b%d", k)] = bb>>k&1 == 1
				}
				out, err := ckt.EvalBool(in)
				if err != nil {
					b.Fatal(err)
				}
				p := 0
				for k := 0; k < 8; k++ {
					if out[fmt.Sprintf("s%d", k)] {
						p |= 1 << k
					}
				}
				if p != a*bb {
					b.Fatalf("%d x %d = %d", a, bb, p)
				}
			}
		}
	}
}
