package sim

// Profile is the opt-in per-run kernel execution profile: one entry per
// partition worker (a one-lane run reports a single worker). It is
// materialized only when profiling was enabled (Options.Profile or
// Engine.SetProfiling), so the default path keeps the kernel's
// zero-allocation steady state. The underlying counters are plain fields
// each worker already owns — counting them is a handful of integer
// increments on paths that are not per-event hot (stalls and boundary
// sends), so profiling costs nothing measurable even when on.
type Profile struct {
	// Partitions is the effective partition count of the run (1 for a
	// one-lane run).
	Partitions int
	// Workers holds per-partition counters, indexed by partition.
	Workers []WorkerProfile
}

// WorkerProfile is one partition worker's counters for one run.
type WorkerProfile struct {
	// Partition is the worker's partition index.
	Partition int
	// EventsProcessed counts events this worker popped and evaluated —
	// the per-partition split of Stats.EventsProcessed, exposing load
	// imbalance across partitions.
	EventsProcessed uint64
	// StallWaits counts backoff waits taken while the worker's horizon
	// was blocked on an upstream partition: the partitioned kernel's
	// idle time in units of waits. High values on one partition point at
	// a slow upstream or an unbalanced cut.
	StallWaits uint64
	// MailboxSends counts boundary messages this worker sent to
	// downstream partitions.
	MailboxSends uint64
	// MailboxHighWater is the deepest any of this worker's inbound
	// mailboxes grew between drains — sustained high water means the
	// worker drains slower than its upstreams produce.
	MailboxHighWater int
}
