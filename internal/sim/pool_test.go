package sim

import (
	"sync/atomic"
	"testing"

	"halotis/internal/cellib"
	"halotis/internal/circ"
	"halotis/internal/circuits"
)

func poolTestIR(t *testing.T) *circ.Compiled {
	t.Helper()
	ckt, err := circuits.C17(cellib.Default06())
	if err != nil {
		t.Fatal(err)
	}
	return circ.Compile(ckt)
}

// poolStimulus builds a small drive over the circuit's primary inputs.
func poolStimulus(ir *circ.Compiled) Stimulus {
	st := Stimulus{}
	for i, in := range ir.Inputs {
		st[ir.NetName[in]] = InputWave{Edges: []InputEdge{
			{Time: 2 + float64(i), Rising: true, Slew: 0.2},
			{Time: 12 + float64(i), Rising: false, Slew: 0.2},
		}}
	}
	return st
}

func TestEnginePoolReuse(t *testing.T) {
	p := NewEnginePool(poolTestIR(t), 2, nil)
	key := Options{Model: DDM}.PoolKey()
	st := poolStimulus(p.IR())

	// Sequential steady-state traffic must construct exactly one engine.
	for i := 0; i < 16; i++ {
		eng := p.Acquire(key)
		if _, err := eng.RunContext(nil, st, 30); err != nil {
			t.Fatal(err)
		}
		p.Release(key, eng)
	}
	if created := p.Created(); created != 1 {
		t.Errorf("16 sequential runs created %d engines, want 1", created)
	}

	// A different options key gets its own free list.
	cdm := Options{Model: CDM}.PoolKey()
	p.Release(cdm, p.Acquire(cdm))
	if created := p.Created(); created != 2 {
		t.Errorf("engines created = %d after CDM acquire, want 2", created)
	}
}

// TestEnginePoolReleaseClearsRunState: profiling and the progress counter
// are one run's state, so an engine released with both set comes back from
// Acquire running unprofiled and leaves the old counter alone.
func TestEnginePoolReleaseClearsRunState(t *testing.T) {
	p := NewEnginePool(poolTestIR(t), 1, nil)
	key := Options{Model: DDM}.PoolKey()
	st := poolStimulus(p.IR())

	var c atomic.Uint64
	eng := p.Acquire(key)
	eng.SetProfiling(true)
	eng.SetProgress(&c)
	p.Release(key, eng)

	again := p.Acquire(key)
	if again != eng {
		t.Fatal("the pool built a new engine instead of reusing the released one")
	}
	res, err := again.RunContext(nil, st, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.EventsProcessed == 0 {
		t.Fatal("the run processed no events; the check below would be vacuous")
	}
	if res.Profile != nil {
		t.Error("a released engine kept profiling on")
	}
	if n := c.Load(); n != 0 {
		t.Errorf("a released engine still published %d events to the old counter", n)
	}
}

func TestEnginePoolSteadyStateAllocs(t *testing.T) {
	p := NewEnginePool(poolTestIR(t), 2, nil)
	key := Options{Model: DDM}.PoolKey()
	st := poolStimulus(p.IR())

	// Warm-up: grow the engine's buffers and seed the pool.
	eng := p.Acquire(key)
	if _, err := eng.RunContext(nil, st, 30); err != nil {
		t.Fatal(err)
	}
	p.Release(key, eng)

	//halotis:pins Acquire RunContext Release
	allocs := testing.AllocsPerRun(50, func() {
		eng := p.Acquire(key)
		if _, err := eng.RunContext(nil, st, 30); err != nil {
			t.Fatal(err)
		}
		p.Release(key, eng)
	})
	if allocs != 0 {
		t.Errorf("steady-state acquire/run/release allocates %.1f objects per request, want 0", allocs)
	}
}

func TestPoolKeyNormalized(t *testing.T) {
	// Spelling out the engine defaults must map onto the same pool key as
	// omitting them, so mixed traffic shares one warm-engine free list.
	implicit := Options{}.PoolKey()
	explicit := Options{MaxEvents: DefaultMaxEvents, MinPulse: DefaultMinPulse}.PoolKey()
	if implicit != explicit {
		t.Errorf("default spellings diverge: %+v vs %+v", implicit, explicit)
	}
	if custom := (Options{MaxEvents: 1000}).PoolKey(); custom == implicit {
		t.Error("non-default MaxEvents collapsed onto the default key")
	}
	// The key round-trips into runnable options.
	if o := explicit.Options(); o.MaxEvents != DefaultMaxEvents || o.MinPulse != DefaultMinPulse {
		t.Errorf("PoolKey.Options lost the limits: %+v", o)
	}
}

func TestEnginePoolKeyCountBounded(t *testing.T) {
	p := NewEnginePool(poolTestIR(t), 2, nil)
	// A caller sweeping MaxEvents must not grow the free-list map without
	// bound: beyond maxEnginePoolKeys keys, released engines are dropped.
	for i := 1; i <= 4*maxEnginePoolKeys; i++ {
		k := Options{Model: DDM, MaxEvents: uint64(i)}.PoolKey()
		p.Release(k, p.Acquire(k))
	}
	if keys := p.keyCount(); keys > maxEnginePoolKeys {
		t.Errorf("pool retains %d keys, bound is %d", keys, maxEnginePoolKeys)
	}
}

func TestEnginePoolBounded(t *testing.T) {
	p := NewEnginePool(poolTestIR(t), 2, nil)
	key := Options{Model: DDM}.PoolKey()
	a := p.Acquire(key)
	b := p.Acquire(key)
	d := p.Acquire(key)
	p.Release(key, a)
	p.Release(key, b)
	p.Release(key, d) // beyond the bound: dropped
	if n := p.freeCount(key); n != 2 {
		t.Errorf("pool retained %d engines, bound is 2", n)
	}
}
