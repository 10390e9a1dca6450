// Package eventq provides the time-ordered event queue of the HALOTIS
// simulation kernel: a binary min-heap with handles that support O(log n)
// deletion of arbitrary pending events (ArenaQueue).
//
// Arbitrary deletion is the primitive behind the paper's inertial treatment
// (Fig. 4): when a new transition pre-empts a pending threshold crossing at
// a gate input, the previously scheduled event Ej-1 is removed from the
// queue instead of being left to fire.
//
// Ties in time are broken by insertion order (Push) or by a caller key
// (PushKeyed). The simulation kernel pushes with PushKeyed, keyed by pin,
// so its events pop in (time, pin) order whatever order they were pushed
// in, which keeps runs deterministic across partition counts.
package eventq
