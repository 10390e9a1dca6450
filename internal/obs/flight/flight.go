// Package flight is the always-on anomaly flight recorder: every request
// writes one compact fixed-size record into a lock-light ring, and the
// anomalous ones — slow, failed, shed, degraded, hedged, partial — are
// promoted so their trace IDs survive as pinned exemplars. The premise
// (borrowed from record/replay simulators: capture cheaply always, pay
// for detail only on anomalies) is that the question "what happened at
// 14:32?" should be answerable without anyone having enabled tracing at
// 14:31.
//
// The ring is a ticket-sequenced slot array: writers take an atomic
// ticket, then lock only their own slot. Concurrent writers contend only
// when the ring wraps onto a slot still being read, so steady-state cost
// is one atomic add plus an uncontended mutex.
package flight

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
)

// Flags classify a request record. A record with any flag other than
// Cached set (or a non-2xx status) is anomalous and gets promoted.
type Flags uint32

const (
	FlagCached   Flags = 1 << iota // served from result cache
	FlagHedged                     // a hedge fired for this request
	FlagDegraded                   // served stale under degradation
	FlagPartial                    // batch completed partially
	FlagShed                       // refused at admission or shed before its job ran
	FlagFailed                     // 5xx-class outcome
	FlagSlow                       // latency above the p99-derived threshold
	FlagPinned                     // promoted; trace pinned as exemplar
)

// Record is one request's flight entry. Fixed-size apart from the three
// short strings, which reference header-derived values the server already
// holds.
type Record struct {
	UnixNano     int64
	TraceID      string
	Route        string
	Replica      string
	Status       int
	Code         string // API error taxonomy code, empty on success
	LatencyNs    int64
	QueueWaitNs  int64
	KernelEvents uint64
	Flags        Flags
}

// Has reports whether all given flags are set.
func (f Flags) Has(mask Flags) bool { return f&mask == mask }

type slot struct {
	mu   sync.Mutex
	full bool
	rec  Record
}

// Ring is the bounded record store.
type Ring struct {
	slots []slot
	seq   atomic.Uint64 // tickets issued; slot = (ticket-1) % len

	recorded atomic.Uint64
	promoted atomic.Uint64
}

// DefaultCapacity bounds the ring when the caller does not.
const DefaultCapacity = 4096

// NewRing builds a ring retaining up to capacity records
// (DefaultCapacity when capacity <= 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Ring{slots: make([]slot, capacity)}
}

// Put files one record, overwriting the oldest when full. Promoted
// records (FlagPinned) bump the promotion counter; pinning the trace in
// the span recorder is the caller's job — the ring only remembers.
func (r *Ring) Put(rec Record) {
	if r == nil {
		return
	}
	t := r.seq.Add(1)
	s := &r.slots[(t-1)%uint64(len(r.slots))]
	s.mu.Lock()
	s.rec = rec
	s.full = true
	s.mu.Unlock()
	r.recorded.Add(1)
	if rec.Flags.Has(FlagPinned) {
		r.promoted.Add(1)
	}
}

// Recent returns up to limit records, newest first (all retained records
// when limit <= 0).
func (r *Ring) Recent(limit int) []Record {
	if r == nil {
		return nil
	}
	out := make([]Record, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		if s.full {
			out = append(out, s.rec)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].UnixNano > out[j].UnixNano })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Stats reports lifetime counters: records ever written and records
// promoted to pinned exemplars.
func (r *Ring) Stats() (recorded, promoted uint64) {
	if r == nil {
		return 0, 0
	}
	return r.recorded.Load(), r.promoted.Load()
}

// Note carries per-request observations from the handler interior out to
// the flight recorder at the route boundary: flags the deep code learns
// (cache hit, hedge fired, degraded serve, partial batch) and measured
// costs (queue wait, kernel events). The pointer is installed into the
// request context before the handler runs; interior writes happen before
// the handler returns, so the boundary read needs no lock.
type Note struct {
	Cached       bool
	Hedged       bool
	Degraded     bool
	Partial      bool
	QueueWaitNs  int64
	KernelEvents uint64
	Code         string // API error taxonomy code of the response, if any
}

type noteKey struct{}

// WithNote installs a fresh Note into the context and returns it with
// the derived context.
func WithNote(ctx context.Context) (context.Context, *Note) {
	n := &Note{}
	return context.WithValue(ctx, noteKey{}, n), n
}

// NoteFrom returns the context's Note, or nil when the request is not
// being flight-recorded.
func NoteFrom(ctx context.Context) *Note {
	n, _ := ctx.Value(noteKey{}).(*Note)
	return n
}
