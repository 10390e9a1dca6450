package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
)

// InputEdge is one externally driven transition on a primary input.
type InputEdge struct {
	// Time the ramp begins, ns.
	Time float64
	// Rising direction of the ramp.
	Rising bool
	// Slew is the full-swing transition time of the driving ramp, ns.
	Slew float64
}

// InputWave is the complete drive for one primary input: an initial level
// and a time-ordered list of edges.
type InputWave struct {
	// Init is the input's logic level before the first edge.
	Init bool
	// Edges in nondecreasing time order.
	Edges []InputEdge
}

// Stimulus maps primary input names to their drives. Inputs missing from
// the map are held at logic 0.
type Stimulus map[string]InputWave

// Validate checks that every edge time and slew is finite, that slews are
// positive, times non-negative and in order; inputNames lists the
// circuit's primary inputs for membership checking.
func (st Stimulus) Validate(inputNames map[string]bool) error {
	// The reduction below is order-independent — every drive is checked and
	// the reported error is pinned to the lexicographically smallest
	// offending input — so map iteration order cannot reach the caller.
	// Sorting the names first would be simpler but allocates, and Validate
	// sits on the engine's zero-allocation steady-state path.
	var badName string
	var badErr error
	//halotis:ordered error choice reduces to the smallest offending input name; the happy path is order-independent
	for name, w := range st {
		if err := validateWave(name, w, inputNames); err != nil {
			if badErr == nil || name < badName {
				badName, badErr = name, err
			}
		}
	}
	return badErr
}

// validateWave checks one input's drive; the edge scan is deterministic
// (edges are a slice), so the first bad edge is always the one reported.
func validateWave(name string, w InputWave, inputNames map[string]bool) error {
	if !inputNames[name] {
		return fmt.Errorf("sim: stimulus drives %q, which is not a primary input", name)
	}
	prev := 0.0
	for i, e := range w.Edges {
		if !finite(e.Time) || !finite(e.Slew) {
			return fmt.Errorf("sim: stimulus %q edge %d is not finite (time %g, slew %g)", name, i, e.Time, e.Slew)
		}
		if e.Slew <= 0 {
			return fmt.Errorf("sim: stimulus %q edge %d has non-positive slew %g", name, i, e.Slew)
		}
		if e.Time < 0 {
			return fmt.Errorf("sim: stimulus %q edge %d at negative time %g", name, i, e.Time)
		}
		if i > 0 && e.Time < prev {
			return fmt.Errorf("sim: stimulus %q edges out of order at %d (%g < %g)", name, i, e.Time, prev)
		}
		prev = e.Time
	}
	return nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// sortedNames returns the driven input names in deterministic order.
func (st Stimulus) sortedNames() []string {
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// ContentHash returns the stimulus's stable content hash: a hex SHA-256
// over a canonical rendering of every drive — input names in sorted order,
// each with its initial level and exact edge list (time, direction, slew,
// float bits hashed verbatim). It mirrors circ.ContentHash for circuits:
// two Stimulus values describing the same drive hash identically regardless
// of map iteration order, while any change to an edge changes the hash.
// Together with a circuit's content hash and an options fingerprint it
// keys result caches: same circuit + same stimulus + same options means
// the same deterministic result.
//
// Inputs mapped to an all-zero InputWave (the implicit idle drive) still
// contribute their name, so driving an input explicitly at constant 0 and
// omitting it hash differently — the kernel validates driven names, and
// the two stimuli are not interchangeable across circuits.
func (st Stimulus) ContentHash() string {
	h := sha256.New()
	var buf [8]byte
	num := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	flag := func(b bool) {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	h.Write([]byte("halotis/sim stimulus v1\x00"))
	for _, name := range st.sortedNames() {
		w := st[name]
		h.Write([]byte(name))
		h.Write([]byte{0})
		flag(w.Init)
		binary.LittleEndian.PutUint64(buf[:], uint64(len(w.Edges)))
		h.Write(buf[:])
		for _, e := range w.Edges {
			num(e.Time)
			flag(e.Rising)
			num(e.Slew)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// LastEdgeTime returns the time of the latest edge across all inputs, or 0.
func (st Stimulus) LastEdgeTime() float64 {
	last := 0.0
	//halotis:ordered max over values is an order-independent reduction
	for _, w := range st {
		if n := len(w.Edges); n > 0 && w.Edges[n-1].Time > last {
			last = w.Edges[n-1].Time
		}
	}
	return last
}
