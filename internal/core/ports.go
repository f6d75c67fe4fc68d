// Package core implements the paper's primary contribution: the flush unit
// that gives the BOOM L1 data cache support for the RISC-V cache management
// operations CBO.CLEAN and CBO.FLUSH (§5), and the Skip It redundant-
// writeback eliminator built on top of it (§6).
//
// The unit is written against three narrow ports the data cache provides —
// metadata access, (widened) data-array access, and the TileLink C/D channel
// pair — so it can be unit-tested against fake ports and wired into the real
// L1 exactly as Fig. 8 wires it into the SonicBOOM data cache.
package core

import (
	"skipit/internal/metrics"
	"skipit/internal/tilelink"
	"skipit/internal/trace"
)

// LineMeta is the cache-line bookkeeping a CBO.X request snapshots when it
// enters the data cache (§5.2, "Flush Queue"): whether the line hits, whether
// it is dirty, and — with Skip It — the skip bit. It is read from the
// metadata array that is fetched with every data cache request anyway, so
// capturing it adds no metadata-array traffic.
type LineMeta struct {
	Hit   bool
	Dirty bool
	Perm  tilelink.Perm
	Skip  bool
}

// CachePorts is the interface the embedding L1 data cache provides to the
// flush unit. Addresses passed to all methods are cache-line aligned.
type CachePorts interface {
	// MetaInvalidate invalidates the line in the L1 metadata array
	// (CBO.FLUSH in the meta_write state).
	MetaInvalidate(addr uint64)
	// MetaClearDirty unsets the line's dirty bit (CBO.CLEAN on a dirty
	// line in the meta_write state).
	MetaClearDirty(addr uint64)
	// MetaLineState reports the line's current hit/dirty state, used when
	// a completed CBO.CLEAN updates the skip bit.
	MetaLineState(addr uint64) LineMeta
	// MetaSetSkip sets the line's skip bit if the line is present.
	MetaSetSkip(addr uint64, v bool)
	// DataRead returns the line's contents from the data array.
	DataRead(addr uint64) tilelink.Line
	// SendRootRelease offers a RootRelease message to the TL-C channel at
	// cycle now and reports whether the channel accepted it.
	SendRootRelease(now int64, m tilelink.Msg) bool
}

// Config parameterizes the flush unit. The defaults mirror the paper's
// implementation; the ablation flags exist so benches can quantify the
// design choices §5 calls out.
type Config struct {
	// QueueDepth is the flush queue capacity. A full queue nacks the LSU
	// (§5.2).
	QueueDepth int
	// NumFSHRs is the number of flush status holding registers; the paper
	// uses 8.
	NumFSHRs int
	// LineBytes is the cache-line size.
	LineBytes uint64
	// SkipIt enables the §6 skip bit: redundant writebacks to persisted
	// lines are dropped before entering the flush queue.
	SkipIt bool
	// Coalescing enables merging a CBO.X with a same-kind pending request
	// to the same line (§5.3).
	Coalescing bool
	// CoalesceCrossKind enables the §5.3 future-work optimization:
	// merging CBO.X requests of different kinds on the same line. A
	// CBO.CLEAN coalesces into a queued CBO.FLUSH (the flush subsumes
	// it); a CBO.FLUSH upgrades a queued CBO.CLEAN in place (the queued
	// snapshot stays valid because dependent requests are nacked until
	// execution). Off by default, matching the paper's implementation.
	CoalesceCrossKind bool
	// WideDataArray models the widened data array of §5.2 that serves a
	// full line in one cycle. When false, fill_buffer takes one cycle per
	// 8-byte word, as in the unmodified SonicBOOM.
	WideDataArray bool
	// Source is the TileLink source ID stamped on RootRelease messages.
	Source int
	// Metrics is the registry the unit registers its counters with, under
	// the instance name "flush[Source]". Nil gets a private registry, so
	// standalone units (unit tests) work unchanged; the system simulator
	// injects one shared registry for the whole SoC.
	Metrics *metrics.Registry
	// Txns hands out coherence-transaction ids for CBO lifecycles (enqueue
	// through RootReleaseAck); the embedding L1 injects the SoC-wide
	// sequence. Nil gets a private sequence (standalone unit tests).
	// Excluded from fingerprints: ids never change simulated behavior.
	Txns *trace.TxnSeq `json:"-"`
}

// DefaultConfig returns the paper's configuration: 8-entry queue, 8 FSHRs,
// 64 B lines, Skip It and coalescing on, widened data array.
func DefaultConfig() Config {
	return Config{
		QueueDepth:    8,
		NumFSHRs:      8,
		LineBytes:     64,
		SkipIt:        true,
		Coalescing:    true,
		WideDataArray: true,
	}
}

// OfferResult is the data cache's verdict on an incoming CBO.X request.
type OfferResult uint8

const (
	// OfferAccepted: the request was buffered in the flush queue; the
	// instruction is ready to commit (§5.2).
	OfferAccepted OfferResult = iota
	// OfferDropped: the request completed immediately without entering
	// the queue — either Skip It proved the writeback redundant (§6.1) or
	// it coalesced with a pending same-kind request (§5.3). The data
	// cache signals success to the LSU.
	OfferDropped
	// OfferNack: the flush queue is full or the request conflicts with an
	// active FSHR; the LSU retries later (§5.2, §5.3).
	OfferNack
)

func (r OfferResult) String() string {
	switch r {
	case OfferAccepted:
		return "Accepted"
	case OfferDropped:
		return "Dropped"
	case OfferNack:
		return "Nack"
	}
	return "OfferResult(?)"
}

// Stats is the flush unit's counter set, read back as one struct for the
// benchmark harness. The counters live in the metrics registry (under
// "flush[N].*"); Stats() materializes this view from them.
type Stats struct {
	Offered        uint64 // CBO.X requests presented by the LSU
	Enqueued       uint64 // requests buffered in the flush queue
	SkipDropped    uint64 // requests eliminated by the skip bit (§6.1)
	Coalesced      uint64 // requests merged with a pending same-kind one (§5.3)
	CoalescedCross uint64 // cross-kind merges/upgrades (§5.3 future work)
	NackQueueFull  uint64
	NackFSHRBusy   uint64
	RootReleases   uint64 // RootRelease messages sent to L2
	DataWritebacks uint64 // RootReleases that carried dirty data
	ProbeInvals    uint64 // queue entries adjusted by probes (§5.4.1)
	EvictInvals    uint64 // queue entries adjusted by evictions (§5.4.2)
	SkipBitsSet    uint64 // lines marked persisted on CBO.CLEAN completion

	// Stall attribution (§5.4): cycles the flush queue head could not
	// dequeue, by cause, plus TL-C backpressure on RootRelease sends.
	StallWBRdy    uint64 // writeback unit busy (wb_rdy low)
	StallProbeRdy uint64 // probe unit busy (probe_rdy low)
	StallFSHRFull uint64 // every FSHR occupied
	StallSameLine uint64 // head's line already held by an active FSHR
	StallLinkBusy uint64 // RootRelease held by TL-C channel occupancy
}
