package circ

import (
	"math/rand"
	"runtime"
	"testing"

	"halotis/internal/cellib"
	"halotis/internal/netlist"
)

// randomDAG builds a small random combinational circuit directly on the
// netlist builder (the circuits package depends on circ, so the generator
// there can't be used here).
func randomDAG(t *testing.T, seed int64, inputs, gates int) *netlist.Circuit {
	t.Helper()
	lib := cellib.Default06()
	b := netlist.NewBuilder("dag", lib)
	rng := rand.New(rand.NewSource(seed))
	nets := make([]string, 0, inputs+gates)
	for i := 0; i < inputs; i++ {
		n := "in" + itoa(i)
		b.Input(n)
		nets = append(nets, n)
	}
	kinds := []cellib.Kind{cellib.NAND2, cellib.NOR2, cellib.AND2, cellib.OR2, cellib.INV}
	used := make(map[string]bool)
	for i := 0; i < gates; i++ {
		kind := kinds[rng.Intn(len(kinds))]
		nin := 2
		if kind == cellib.INV {
			nin = 1
		}
		ins := make([]string, nin)
		for j := range ins {
			ins[j] = nets[rng.Intn(len(nets))]
			used[ins[j]] = true
		}
		out := "g" + itoa(i)
		b.AddGate("G"+itoa(i), kind, out, ins...)
		nets = append(nets, out)
	}
	for _, n := range nets[inputs:] {
		if !used[n] {
			b.Output(n)
		}
	}
	ckt, err := b.Build()
	if err != nil {
		t.Fatalf("build random dag: %v", err)
	}
	return ckt
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [12]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// checkInvariants asserts the structural guarantees Partitioning documents:
// every gate assigned exactly once to a partition in range, monotonicity of
// every fanout edge, boundary counts that match a recount, and incoming
// lists that name exactly the cut's source partitions.
func checkInvariants(t *testing.T, c *Compiled, p *Partitioning) {
	t.Helper()
	if len(p.GatePart) != c.NumGates() {
		t.Fatalf("GatePart len %d, want %d gates", len(p.GatePart), c.NumGates())
	}
	counts := make([]int, p.K)
	for g, part := range p.GatePart {
		if part < 0 || int(part) >= p.K {
			t.Fatalf("gate %d assigned to partition %d of %d", g, part, p.K)
		}
		counts[part]++
	}
	for part, n := range counts {
		if n != p.Counts[part] {
			t.Fatalf("partition %d: Counts says %d gates, recount %d", part, p.Counts[part], n)
		}
		if n == 0 && c.NumGates() >= p.K {
			t.Fatalf("partition %d empty with %d gates for %d partitions", part, c.NumGates(), p.K)
		}
	}

	nets, edges, pins := 0, 0, 0
	in := make([]map[int32]bool, p.K)
	for i := range in {
		in[i] = make(map[int32]bool)
	}
	for net := int32(0); int(net) < c.NumNets(); net++ {
		src := p.NetPart[net]
		cross := false
		dsts := map[int32]bool{}
		for _, pin := range c.Fanout(net) {
			dst := p.GatePart[c.Pins[pin].Gate]
			if src < 0 {
				continue // primary input: stimulus is pre-loaded, no edge
			}
			if dst < src {
				t.Fatalf("monotonicity violated: net %d driven in %d heard in %d", net, src, dst)
			}
			if dst != src {
				cross = true
				pins++
				if !dsts[dst] {
					dsts[dst] = true
					edges++
					in[dst][src] = true
				}
			}
		}
		if cross {
			nets++
		}
	}
	if nets != p.BoundaryNets || edges != p.BoundaryEdges || pins != p.BoundaryPins {
		t.Fatalf("boundary counts (%d,%d,%d), recount (%d,%d,%d)",
			p.BoundaryNets, p.BoundaryEdges, p.BoundaryPins, nets, edges, pins)
	}
	for dst := range in {
		got := p.Incoming[dst]
		if len(got) != len(in[dst]) {
			t.Fatalf("partition %d: Incoming %v, want %d sources", dst, got, len(in[dst]))
		}
		for i, src := range got {
			if !in[dst][src] {
				t.Fatalf("partition %d: Incoming lists %d which has no edge", dst, src)
			}
			if src >= int32(dst) {
				t.Fatalf("partition %d: Incoming lists non-upstream %d", dst, src)
			}
			if i > 0 && got[i-1] >= src {
				t.Fatalf("partition %d: Incoming %v not strictly ascending", dst, got)
			}
		}
	}
}

func TestPartitionInvariants(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		ckt := randomDAG(t, seed, 12, 400)
		c := Compile(ckt)
		for _, k := range []int{1, 2, 3, 4, 8, 63} {
			checkInvariants(t, c, c.Partition(k))
		}
	}
}

// TestPartitionDeterminism compiles the same netlist twice (separate
// Circuit values, so nothing is shared through the memo) under different
// GOMAXPROCS settings and asserts identical assignments.
func TestPartitionDeterminism(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	a := Compile(randomDAG(t, 5, 10, 300)).Partition(4)
	runtime.GOMAXPROCS(4)
	b := Compile(randomDAG(t, 5, 10, 300)).Partition(4)
	runtime.GOMAXPROCS(old)
	if len(a.GatePart) != len(b.GatePart) {
		t.Fatalf("gate counts differ: %d vs %d", len(a.GatePart), len(b.GatePart))
	}
	for g := range a.GatePart {
		if a.GatePart[g] != b.GatePart[g] {
			t.Fatalf("gate %d: partition %d vs %d across GOMAXPROCS", g, a.GatePart[g], b.GatePart[g])
		}
	}
	if a.BoundaryEdges != b.BoundaryEdges || a.BoundaryPins != b.BoundaryPins {
		t.Fatalf("boundary stats differ: (%d,%d) vs (%d,%d)",
			a.BoundaryEdges, a.BoundaryPins, b.BoundaryEdges, b.BoundaryPins)
	}
}

// TestPartitionMemoized asserts Partition caches per K on the Compiled and
// clamps out-of-range K.
func TestPartitionMemoized(t *testing.T) {
	c := Compile(randomDAG(t, 3, 8, 50))
	if p1, p2 := c.Partition(4), c.Partition(4); p1 != p2 {
		t.Fatalf("Partition(4) not memoized: %p vs %p", p1, p2)
	}
	if p := c.Partition(0); p.K != 1 {
		t.Fatalf("Partition(0).K = %d, want 1", p.K)
	}
	if p := c.Partition(1 << 20); p.K != c.NumGates() {
		t.Fatalf("Partition(huge).K = %d, want %d", p.K, c.NumGates())
	}
	// K=1 must mean zero boundary traffic.
	if p := c.Partition(1); p.BoundaryPins != 0 || p.BoundaryEdges != 0 || p.BoundaryNets != 0 {
		t.Fatalf("K=1 has boundary traffic: %+v", p)
	}
}

// TestPartitionReducesCut sanity-checks that refinement does not increase
// the cut over the raw seed on a structured circuit: rebuild the seed by
// hand and compare boundary pins.
func TestPartitionReducesCut(t *testing.T) {
	c := Compile(randomDAG(t, 11, 16, 2000))
	p := c.Partition(4)
	n := c.NumGates()
	seedPins := 0
	seedPart := func(g int32) int32 { return int32(int64(g) * 4 / int64(n)) }
	for net := int32(0); int(net) < c.NumNets(); net++ {
		if p.NetPart[net] < 0 {
			continue
		}
		var src int32 = -1
		for g := int32(0); g < int32(n); g++ {
			if c.Gates[g].Out == net {
				src = seedPart(g)
				break
			}
		}
		for _, pin := range c.Fanout(net) {
			if seedPart(c.Pins[pin].Gate) != src {
				seedPins++
			}
		}
	}
	if p.BoundaryPins > seedPins {
		t.Fatalf("refined cut %d pins worse than seed %d", p.BoundaryPins, seedPins)
	}
	t.Logf("seed cut %d pins, refined %d", seedPins, p.BoundaryPins)
}
