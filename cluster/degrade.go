package cluster

import (
	"container/list"
	"crypto/sha256"
	"encoding/json"
	"sync"

	"halotis/api"
)

// Graceful degradation. Two mechanisms:
//
//   - Partial batches: with BatchOptions.AllowPartial, scatterBatch
//     (failover.go) no longer fails a batch as a unit — every request runs
//     to its own outcome and failures come back per-slot, so one poisoned
//     stimulus or one unlucky chunk does not discard thousands of finished
//     reports. The router answers with service.BatchResponseOf, the same
//     response builder the replica uses.
//   - Stale reads (resultCache): the router remembers recent simulation
//     results by (circuit, request) content hash. When every replica
//     holding a circuit is unreachable, a cache hit is served with
//     Report.Degraded set instead of a 502 — simulations are deterministic,
//     so "stale" differs from "fresh" only in the Replica attribution.

// resultCacheCap bounds the router's degraded-read cache.
const resultCacheCap = 256

// resultKey fingerprints one (circuit, request) pair. Request structs
// marshal with a fixed field order, so the fingerprint is deterministic.
type resultKey [sha256.Size]byte

func resultKeyOf(circuitID string, req api.Request) (resultKey, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return resultKey{}, err
	}
	h := sha256.New()
	h.Write([]byte(circuitID))
	h.Write([]byte{0})
	h.Write(b)
	var k resultKey
	copy(k[:], h.Sum(nil))
	return k, nil
}

type resultEntry struct {
	key resultKey
	rep api.Report
}

// resultCache is a bounded LRU of recent simulation reports.
type resultCache struct {
	mu  sync.Mutex
	cap int
	m   map[resultKey]*list.Element
	lru *list.List // of *resultEntry; front = most recent
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, m: make(map[resultKey]*list.Element), lru: list.New()}
}

func (s *resultCache) put(k resultKey, rep api.Report) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[k]; ok {
		el.Value = &resultEntry{key: k, rep: rep}
		s.lru.MoveToFront(el)
		return
	}
	s.m[k] = s.lru.PushFront(&resultEntry{key: k, rep: rep})
	for s.lru.Len() > s.cap {
		back := s.lru.Back()
		delete(s.m, back.Value.(*resultEntry).key)
		s.lru.Remove(back)
	}
}

func (s *resultCache) get(k resultKey) (api.Report, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[k]
	if !ok {
		return api.Report{}, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*resultEntry).rep, true
}
