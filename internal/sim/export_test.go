package sim

// TransitionChunk exposes the per-net slab chunk size to the external
// tests that check nets outgrowing it.
const TransitionChunk = transitionChunk
