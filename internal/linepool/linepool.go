// Package linepool provides a deterministic free pool of line-sized byte
// buffers for the simulator's hot paths. The cycle loop used to allocate a
// fresh make([]byte, LineBytes) for every DRAM read response, L2 grant, L1
// writeback and probe downgrade; at tens of millions of cycles per sweep that
// allocation (and the GC pressure behind it) dominates host time. The pool
// turns those sites into a pointer pop.
//
// Unlike sync.Pool the free list is a plain LIFO slice: no per-P sharding, no
// GC-driven eviction, and therefore bit-identical reuse order from run to run.
// One pool belongs to one simulated System and is shared by its memory
// controller, L2, L1s and flush units — the components a line buffer migrates
// between over a transaction's lifetime. The simulator is single-goroutine,
// so the pool takes no locks; the hit/miss counters are registry-backed
// atomics and may be read concurrently by benchmark harnesses.
//
// Ownership discipline: a buffer obtained with Get travels with its
// transaction (a tilelink.Msg.Data payload or a mem.Request/Response.Data
// payload) and is returned with Put exactly once, by the component that
// consumes the payload — the L2 when it installs a grant-ack'd line or sinks
// writeback data, the L1 when an MSHR installs granted data, the memory
// controller when it applies a write. Components that merely hold a reference
// after a successful send (the WBU awaiting ReleaseAck, an FSHR awaiting
// RootReleaseAck) must drop it without Put. A nil *Pool is valid everywhere
// and degrades to plain allocation, so components remain usable standalone.
package linepool

import "skipit/internal/metrics"

// Pool is a free list of fixed-size line buffers. The zero value is not
// usable; construct with New. All methods are nil-receiver safe.
type Pool struct {
	lineBytes int
	free      [][]byte

	hits     *metrics.Counter // Get served from the free list
	misses   *metrics.Counter // Get fell back to make
	recycles *metrics.Counter // Put accepted a buffer back
}

// New returns a pool of lineBytes-sized buffers, registering its counters
// under the instance name "pool" in reg (nil gets a private registry).
func New(lineBytes int, reg *metrics.Registry) *Pool {
	if lineBytes <= 0 {
		panic("linepool: non-positive line size")
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Pool{
		lineBytes: lineBytes,
		hits:      reg.Counter("pool", "hits"),
		misses:    reg.Counter("pool", "misses"),
		recycles:  reg.Counter("pool", "recycles"),
	}
}

// Get returns a buffer of exactly size bytes. Buffers are recycled dirty —
// every call site overwrites the full line before use. A nil pool, or a size
// the pool was not built for, falls back to a fresh allocation.
//
//skipit:hotpath
func (p *Pool) Get(size int) []byte {
	if p == nil || size != p.lineBytes {
		return make([]byte, size) //skipit:ignore hotalloc cold fallback for nil pool or foreign size, off the steady-state path
	}
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.hits.Inc()
		return b
	}
	p.misses.Inc()
	return make([]byte, p.lineBytes) //skipit:ignore hotalloc pool-miss fallback taken only until the working set is seeded
}

// Put returns a buffer to the free list. Nil pools, nil buffers and
// foreign-sized buffers are ignored, so consumption points may Put whatever
// payload reached them without caring where it was allocated.
//
//skipit:hotpath
func (p *Pool) Put(b []byte) {
	if p == nil || b == nil || len(b) != p.lineBytes {
		return
	}
	p.recycles.Inc()
	p.free = append(p.free, b) //skipit:ignore hotalloc free-list growth is amortized, steady state reuses capacity
}

// Free returns the current free-list depth (for tests).
func (p *Pool) Free() int {
	if p == nil {
		return 0
	}
	return len(p.free)
}

// Stats returns (hits, misses, recycles) for tests and snapshots.
func (p *Pool) Stats() (hits, misses, recycles uint64) {
	if p == nil {
		return 0, 0, 0
	}
	return p.hits.Value(), p.misses.Value(), p.recycles.Value()
}
