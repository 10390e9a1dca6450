package cluster

import (
	"hash/fnv"
	"sort"
)

// Rendezvous (highest-random-weight) hashing: every (replica, circuit)
// pair gets an independent pseudo-random score, and a circuit's replicas
// are ranked by descending score. Each replica's scores are independent of
// which other replicas exist, which is the whole point: removing a replica
// deletes its scores and changes nothing else, so exactly the circuits it
// led move (to their second-ranked replica), and adding one steals only
// the circuits it now wins. Consistency needs no coordination — any party
// that knows the replica IDs computes the same ranking.

// score is the rendezvous weight of one (replica, circuit) pair: FNV-1a
// over the replica ID and the circuit's content hash. The circuit ID is
// already a SHA-256 hex string, so inputs are well-spread; FNV keeps
// ranking cheap (one small hash per replica per request).
func score(replicaID, circuitID string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(replicaID))
	h.Write([]byte{0})
	h.Write([]byte(circuitID))
	return h.Sum64()
}

// outranks is the one ranking rule Rank and ranked share — placement must
// agree on every node: replica a ranks before replica b for the circuit
// when its score is higher, ties to the smaller ID.
func outranks(circuitID, a, b string) bool {
	sa, sb := score(a, circuitID), score(b, circuitID)
	if sa != sb {
		return sa > sb
	}
	return a < b
}

// Rank orders replica IDs for a circuit by rendezvous hashing, best first.
// It is deterministic and independent of the input order; ties (which
// would need an FNV-64 collision) break toward the lexicographically
// smaller ID so the order stays total.
func Rank(circuitID string, replicaIDs []string) []string {
	out := append([]string(nil), replicaIDs...)
	sort.SliceStable(out, func(i, j int) bool { return outranks(circuitID, out[i], out[j]) })
	return out
}

// ranked orders the cluster's replicas for a circuit, best first.
func (c *Cluster) ranked(circuitID string) []*replica {
	out := append([]*replica(nil), c.replicas...)
	sort.SliceStable(out, func(i, j int) bool { return outranks(circuitID, out[i].id, out[j].id) })
	return out
}

// Placement returns the IDs of the replicas the circuit is placed on: the
// top-R of its rendezvous ranking, health notwithstanding (health decides
// routing, not placement).
func (c *Cluster) Placement(circuitID string) []string {
	ranked := c.ranked(circuitID)
	out := make([]string, 0, c.rf)
	for _, r := range ranked[:c.rf] {
		out = append(out, r.id)
	}
	return out
}

// candidates returns the replicas to try for a circuit, in order: the
// healthy members of the placement set first (rotated across calls to
// spread read load over the replica group), then healthy lower-ranked
// replicas (failover placement, repaired by upload-on-miss), then the
// unhealthy ones in rank order as a last resort — a "down" verdict may be
// stale, and a doomed attempt is cheaper than refusing a request that
// could have succeeded.
func (c *Cluster) candidates(circuitID string) []*replica {
	ranked := c.ranked(circuitID)
	primaries, rest := ranked[:c.rf], ranked[c.rf:]

	out := make([]*replica, 0, len(ranked))
	healthyPrim := make([]*replica, 0, len(primaries))
	for _, r := range primaries {
		if r.healthy() {
			healthyPrim = append(healthyPrim, r)
		}
	}
	if n := len(healthyPrim); n > 0 {
		// Fibonacci-mix the rotation counter: callers that interleave
		// circuits in lockstep with their request counter would otherwise
		// resonate with a plain modulo and pin each circuit to one member
		// of its set.
		x := c.rot.Add(1) * 0x9e3779b97f4a7c15
		start := int((x >> 33) % uint64(n))
		for i := 0; i < n; i++ {
			out = append(out, healthyPrim[(start+i)%n])
		}
	}
	for _, r := range rest {
		if r.healthy() {
			out = append(out, r)
		}
	}
	for _, r := range ranked {
		if !r.healthy() {
			out = append(out, r)
		}
	}
	return out
}

// healthyPrimaries returns the healthy members of the placement set in
// rank order — the scatter targets for a batch.
func (c *Cluster) healthyPrimaries(circuitID string) []*replica {
	ranked := c.ranked(circuitID)
	out := make([]*replica, 0, c.rf)
	for _, r := range ranked[:c.rf] {
		if r.healthy() {
			out = append(out, r)
		}
	}
	return out
}
