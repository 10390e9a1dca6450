// Package eventq provides the time-ordered event queue of the HALOTIS
// simulation kernel: a monotone radix queue over a slot arena, with handles
// that support O(1) deletion of arbitrary pending events (ArenaQueue).
//
// Arbitrary deletion is the primitive behind the paper's inertial treatment
// (Fig. 4): when a new transition pre-empts a pending threshold crossing at
// a gate input, the previously scheduled event Ej-1 is removed from the
// queue instead of being left to fire.
//
// The queue is fastest while every push lies at or after the minimum it
// last settled on, as nearly all of the kernel's pushes do: a push is an
// O(1) append to the bucket its time names relative to that minimum, and a
// pop takes the top of the small heap of entries at exactly it, refiling
// the lowest non-empty bucket when it runs dry. A pop or a peek settles the
// minimum, so it can lie above the last pop. A push below it is still
// ordered correctly; it re-buckets the entries near it. In the kernel only
// a partitioned lane's inbox can push below the head the lane last peeked,
// and measured, it rarely does. Remove marks the slot and leaves it in its
// bucket until the queue reaches it, so the arena holds the pending events
// plus the removed ones still ahead of the minimum.
//
// Ties in time are broken by insertion order (Push) or by a caller key
// (PushKeyed). The simulation kernel pushes with PushKeyed, keyed by pin,
// so its events pop in (time, pin) order whatever order they were pushed
// in, which keeps runs deterministic across partition counts.
package eventq
