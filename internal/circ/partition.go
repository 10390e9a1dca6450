package circ

// Partitioning is a deterministic assignment of a compiled circuit's gates to
// K worker partitions, built for the conservative parallel event kernel in
// internal/sim. Two structural guarantees make the parallel protocol simple
// and deadlock-free:
//
//  1. Monotonicity: for every net driven by a gate in partition p, every
//     listening pin's gate is in a partition >= p. Boundary messages
//     therefore only ever flow from lower- to higher-numbered partitions,
//     so the partition dependency graph is acyclic by construction.
//  2. Determinism: the assignment is a pure function of the IR — level-order
//     chunk seeding followed by a fixed number of sequential greedy
//     refinement passes — so the same circuit partitions identically across
//     runs, hosts and GOMAXPROCS settings.
//
// Seeding exploits the IR's level-order gate layout (see Compiled): K equal
// contiguous index ranges are unions of level slices, which satisfies
// monotonicity immediately and keeps each partition's slab accesses local.
// Refinement then walks gates in index order and moves individual gates to
// an adjacent partition when that strictly reduces the number of
// cross-partition listening pins, subject to monotonicity and a ±20% load
// balance band — boundary traffic is the parallel kernel's only
// synchronization cost, so fewer cross pins is the whole objective.
type Partitioning struct {
	// K is the partition count; partitions are numbered 0..K-1.
	K int
	// GatePart maps IR gate index -> owning partition.
	GatePart []int32
	// NetPart maps IR net ID -> the partition of its driving gate, or -1
	// for undriven nets (primary inputs): their transitions come from the
	// stimulus, which is pre-loaded into every partition before workers
	// start, so they never cross a boundary at run time.
	NetPart []int32
	// Incoming[p] lists, ascending, the partitions with at least one
	// boundary edge into p. Monotonicity makes every entry < p.
	Incoming [][]int32
	// Counts[p] is the number of gates assigned to partition p.
	Counts []int
	// Cross[net] marks nets with at least one off-partition listener;
	// transitions on every other net reconcile locally.
	Cross []bool
	// BoundaryNets counts nets with at least one off-partition listener;
	// BoundaryEdges counts distinct (net, destination partition) pairs —
	// the number of mailbox messages one transition on every net would
	// cost; BoundaryPins counts listening pins across a boundary.
	BoundaryNets  int
	BoundaryEdges int
	BoundaryPins  int
}

// refinePasses bounds the greedy refinement. Gains shrink geometrically per
// pass; four passes recover most of the reachable cut reduction at O(pins)
// each.
const refinePasses = 4

// Partition returns the circuit's K-way partitioning, memoized per K on the
// Compiled (like the IR itself is memoized on the circuit): engines and
// benchmarks asking for the same K share one immutable assignment. K is
// clamped to [1, NumGates].
func (c *Compiled) Partition(k int) *Partitioning {
	if k < 1 {
		k = 1
	}
	if n := c.NumGates(); k > n && n > 0 {
		k = n
	}
	c.partMu.Lock()
	defer c.partMu.Unlock()
	if p, ok := c.partCache[k]; ok {
		return p
	}
	p := c.partition(k)
	if c.partCache == nil {
		c.partCache = make(map[int]*Partitioning)
	}
	c.partCache[k] = p
	return p
}

func (c *Compiled) partition(k int) *Partitioning {
	n := c.NumGates()
	p := &Partitioning{
		K:        k,
		GatePart: make([]int32, n),
		NetPart:  make([]int32, c.NumNets()),
		Cross:    make([]bool, c.NumNets()),
		Counts:   make([]int, k),
	}

	// Seed: contiguous level-order chunks of near-equal size.
	for g := 0; g < n; g++ {
		p.GatePart[g] = int32(int64(g) * int64(k) / int64(n))
	}

	// driver[net] is the IR index of the driving gate, -1 if undriven.
	driver := make([]int32, c.NumNets())
	for i := range driver {
		driver[i] = -1
	}
	for g := 0; g < n; g++ {
		driver[c.Gates[g].Out] = int32(g)
	}

	if k > 1 {
		c.refine(p, driver)
	}

	for g := 0; g < n; g++ {
		p.Counts[p.GatePart[g]]++
	}
	for net := range p.NetPart {
		if d := driver[net]; d >= 0 {
			p.NetPart[net] = p.GatePart[d]
		} else {
			p.NetPart[net] = -1
		}
	}

	// Boundary stats and incoming-edge lists. seen[q] marks, per net, which
	// destination partitions were already counted for that net.
	p.Incoming = make([][]int32, k)
	inSet := make([]map[int32]bool, k)
	for i := range inSet {
		inSet[i] = make(map[int32]bool)
	}
	seen := make([]int32, k) // per-net generation stamps, index = partition
	for i := range seen {
		seen[i] = -1
	}
	for net := 0; net < c.NumNets(); net++ {
		src := p.NetPart[net]
		if src < 0 {
			continue
		}
		cross := false
		for _, pin := range c.Fanout(int32(net)) {
			dst := p.GatePart[c.Pins[pin].Gate]
			if dst == src {
				continue
			}
			cross = true
			p.BoundaryPins++
			if seen[dst] != int32(net) {
				seen[dst] = int32(net)
				p.BoundaryEdges++
				if !inSet[dst][src] {
					inSet[dst][src] = true
					p.Incoming[dst] = append(p.Incoming[dst], src)
				}
			}
		}
		if cross {
			p.Cross[net] = true
			p.BoundaryNets++
		}
	}
	for i := range p.Incoming {
		sortInt32(p.Incoming[i])
	}
	return p
}

// refine runs the greedy boundary-pin reduction passes described on
// Partitioning. Moves are restricted to adjacent partitions, must keep
// monotonicity (a gate may move up only if every listener of its output is
// already above, down only if every driver of its inputs is already below)
// and must keep every partition within the load band.
func (c *Compiled) refine(p *Partitioning, driver []int32) {
	n := c.NumGates()
	k := p.K
	counts := make([]int, k)
	for g := 0; g < n; g++ {
		counts[p.GatePart[g]]++
	}
	target := n / k
	minLoad := target - target/5
	if minLoad < 1 {
		minLoad = 1
	}
	maxLoad := target + target/5 + 1

	for pass := 0; pass < refinePasses; pass++ {
		moved := 0
		for g := int32(0); g < int32(n); g++ {
			part := p.GatePart[g]
			lo, hi := c.Gates[g].Pins()

			// Tally this gate's cross-pin exposure toward each neighbor.
			// Inputs: a pin whose driver sits in part becomes cross on an
			// up-move; one whose driver sits in part-1 becomes local on a
			// down-move. Outputs: a listener in part+1 becomes local on an
			// up-move; one in part becomes cross on a down-move.
			inSame, inBelow := 0, 0
			downOK := part > 0 && counts[part] > minLoad && counts[part-1] < maxLoad
			for pin := lo; pin < hi; pin++ {
				d := driver[c.PinNet[pin]]
				if d < 0 {
					continue
				}
				switch dp := p.GatePart[d]; {
				case dp == part:
					inSame++
					downOK = false // a same-partition driver blocks moving down
				case dp == part-1:
					inBelow++
				}
			}
			outSame, outAbove := 0, 0
			upOK := part < int32(k-1) && counts[part] > minLoad && counts[part+1] < maxLoad
			for _, pin := range c.Fanout(c.Gates[g].Out) {
				switch lp := p.GatePart[c.Pins[pin].Gate]; {
				case lp == part:
					outSame++
					upOK = false // a same-partition listener blocks moving up
				case lp == part+1:
					outAbove++
				}
			}

			if upOK && outAbove-inSame > 0 {
				p.GatePart[g] = part + 1
				counts[part]--
				counts[part+1]++
				moved++
			} else if downOK && inBelow-outSame > 0 {
				p.GatePart[g] = part - 1
				counts[part]--
				counts[part-1]++
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

// sortInt32 is an insertion sort: Incoming lists are tiny (bounded by K).
func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
