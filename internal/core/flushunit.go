package core

import (
	"fmt"
	"math/bits"

	"skipit/internal/metrics"
	"skipit/internal/tilelink"
	"skipit/internal/trace"
)

// FlushUnit is the microarchitectural unit of §5 (Fig. 6): a flush queue
// buffering committed CBO.X requests, a set of FSHRs executing them
// asynchronously, and a flush counter that gates fences. With Skip It
// enabled it additionally maintains the §6 skip bit and drops redundant
// writebacks before they are enqueued.
//
// The embedding data cache drives the unit once per cycle via Tick, routes
// RootReleaseAck messages to OnRootReleaseAck, and consults the conflict
// predicates (LoadConflict, StoreConflict, VictimBlocked) when handling
// subsequent requests to lines with writebacks in flight (§5.3, §5.4).
type FlushUnit struct {
	cfg   Config
	ports CachePorts
	rec   *trace.Rec // event stream handle; nil records nothing
	name  string

	queue   []flushReq
	fshrs   []fshr
	nextRR  int // round-robin FSHR allocation pointer (§5.2)
	counter int // flush counter (§5.2): pending CBO.X requests
	// preAck has bit i set while FSHR i is busyPreAck: the FSHRs Tick
	// steps, and the NOR of which is flush_rdy (§5.4.1).
	preAck uint64

	ctr   counters
	chaos Chaos // nil unless a fault schedule is armed
}

// counters holds the unit's registry-backed instruments. Increment sites use
// these directly; Stats() reads them back into the legacy struct view.
type counters struct {
	offered, enqueued, skipDropped *metrics.Counter
	coalesced, coalescedCross      *metrics.Counter
	nackQueueFull, nackFSHRBusy    *metrics.Counter
	rootReleases, dataWritebacks   *metrics.Counter
	probeInvals, evictInvals       *metrics.Counter
	skipBitsSet                    *metrics.Counter
	stallWBRdy, stallProbeRdy      *metrics.Counter
	stallFSHRFull, stallSameLine   *metrics.Counter
	stallLinkBusy                  *metrics.Counter
	queueDepth, fshrOccupancy      *metrics.Gauge
	flushLatency                   *metrics.Histogram
}

func newCounters(reg *metrics.Registry, name string) counters {
	return counters{
		offered:        reg.Counter(name, "offered"),
		enqueued:       reg.Counter(name, "enqueued"),
		skipDropped:    reg.Counter(name, "skip_dropped"),
		coalesced:      reg.Counter(name, "coalesced"),
		coalescedCross: reg.Counter(name, "coalesced_cross"),
		nackQueueFull:  reg.Counter(name, "nack_queue_full"),
		nackFSHRBusy:   reg.Counter(name, "nack_fshr_busy"),
		rootReleases:   reg.Counter(name, "root_releases"),
		dataWritebacks: reg.Counter(name, "data_writebacks"),
		probeInvals:    reg.Counter(name, "probe_invals"),
		evictInvals:    reg.Counter(name, "evict_invals"),
		skipBitsSet:    reg.Counter(name, "skip_bits_set"),
		stallWBRdy:     reg.Counter(name, "stall_wb_rdy_cycles"),
		stallProbeRdy:  reg.Counter(name, "stall_probe_rdy_cycles"),
		stallFSHRFull:  reg.Counter(name, "stall_fshr_full_cycles"),
		stallSameLine:  reg.Counter(name, "stall_same_line_cycles"),
		stallLinkBusy:  reg.Counter(name, "stall_link_busy_cycles"),
		queueDepth:     reg.Gauge(name, "queue_depth"),
		fshrOccupancy:  reg.Gauge(name, "fshr_occupancy"),
		flushLatency:   reg.Histogram(name, "flush_latency_cycles", nil),
	}
}

// NewFlushUnit builds a flush unit over the given cache ports.
func NewFlushUnit(cfg Config, ports CachePorts) *FlushUnit {
	if cfg.QueueDepth <= 0 || cfg.NumFSHRs <= 0 || cfg.NumFSHRs > 64 {
		panic("core: flush unit needs a positive queue depth and 1 to 64 FSHRs")
	}
	if cfg.LineBytes != tilelink.LineBytes {
		panic(fmt.Sprintf("core: line size %d, want %d", cfg.LineBytes, tilelink.LineBytes))
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	if cfg.Txns == nil {
		cfg.Txns = &trace.TxnSeq{}
	}
	u := &FlushUnit{
		cfg:   cfg,
		ports: ports,
		fshrs: make([]fshr, cfg.NumFSHRs),
		name:  fmt.Sprintf("flush[%d]", cfg.Source),
	}
	u.ctr = newCounters(reg, u.name)
	return u
}

// Config returns the unit's configuration.
func (u *FlushUnit) Config() Config { return u.cfg }

// SetRecorder attaches the unit's event stream handle (nil records nothing).
func (u *FlushUnit) SetRecorder(r *trace.Rec) { u.rec = r }

// Stats returns the activity counters as one struct, read back from the
// metrics registry (thin view; see package metrics).
func (u *FlushUnit) Stats() Stats {
	return Stats{
		Offered:        u.ctr.offered.Value(),
		Enqueued:       u.ctr.enqueued.Value(),
		SkipDropped:    u.ctr.skipDropped.Value(),
		Coalesced:      u.ctr.coalesced.Value(),
		CoalescedCross: u.ctr.coalescedCross.Value(),
		NackQueueFull:  u.ctr.nackQueueFull.Value(),
		NackFSHRBusy:   u.ctr.nackFSHRBusy.Value(),
		RootReleases:   u.ctr.rootReleases.Value(),
		DataWritebacks: u.ctr.dataWritebacks.Value(),
		ProbeInvals:    u.ctr.probeInvals.Value(),
		EvictInvals:    u.ctr.evictInvals.Value(),
		SkipBitsSet:    u.ctr.skipBitsSet.Value(),
		StallWBRdy:     u.ctr.stallWBRdy.Value(),
		StallProbeRdy:  u.ctr.stallProbeRdy.Value(),
		StallFSHRFull:  u.ctr.stallFSHRFull.Value(),
		StallSameLine:  u.ctr.stallSameLine.Value(),
		StallLinkBusy:  u.ctr.stallLinkBusy.Value(),
	}
}

// FlushLatency exposes the per-request completion-latency histogram
// (FSHR allocation to RootReleaseAck), for P95/P99 reporting.
func (u *FlushUnit) FlushLatency() *metrics.Histogram { return u.ctr.flushLatency }

func (u *FlushUnit) lineAddr(addr uint64) uint64 { return addr &^ (u.cfg.LineBytes - 1) }

// Offer presents a committed CBO.X request to the flush unit together with
// the metadata snapshot the data cache read for it. The result tells the
// data cache whether the instruction is buffered (complete for the LSU),
// completed immediately, or must be nacked and retried.
func (u *FlushUnit) Offer(now int64, addr uint64, clean bool, meta LineMeta) OfferResult {
	addr = u.lineAddr(addr)
	u.ctr.offered.Inc()

	// §6.1: with Skip It, a request that hits a clean line whose skip bit
	// is set is provably redundant — the line has no dirty data anywhere
	// in the hierarchy — and is dropped before entering the queue.
	if u.cfg.SkipIt && meta.Hit && !meta.Dirty && meta.Skip {
		u.ctr.skipDropped.Inc()
		// Skip-audit: the primary §6.1 elimination — the CBO never becomes
		// a transaction, so no txn id exists for it.
		u.rec.Record(now, trace.RecSkipAudit, trace.CauseSkipBit, 0, addr, 0)
		return OfferDropped
	}

	// §5.3: a CBO.X may coalesce with a pending same-kind request to the
	// same line, because the intervening nack rules guarantee the line
	// state is unchanged between the two. Requests already being executed
	// by an FSHR have begun mutating metadata, so only queued entries are
	// eligible.
	if u.cfg.Coalescing {
		for i := range u.queue {
			q := &u.queue[i]
			if q.addr != addr {
				continue
			}
			if q.isClean == clean {
				u.ctr.coalesced.Inc()
				u.rec.Record(now, trace.RecCboCoalesce, trace.CboKind(clean), q.txn, addr, 0)
				return OfferDropped
			}
			if !u.cfg.CoalesceCrossKind {
				continue
			}
			if clean && !q.isClean {
				// CBO.CLEAN into a queued CBO.FLUSH: the flush
				// already invalidates and writes back everything
				// the clean would.
				u.ctr.coalescedCross.Inc()
				return OfferDropped
			}
			// CBO.FLUSH into a queued CBO.CLEAN: upgrade the entry
			// in place. The snapshot bits remain valid — the line
			// has been frozen by the §5.3 nack rules since the
			// clean was enqueued — and the FSHR will now invalidate
			// instead of just clearing the dirty bit.
			q.isClean = false
			u.ctr.coalescedCross.Inc()
			return OfferDropped
		}
	}

	// A request to a line an FSHR is actively handling behaves like the
	// other dependent STQ requests of §5.3: nack and let the LSU retry.
	if u.fshrFor(addr) != nil {
		u.ctr.nackFSHRBusy.Inc()
		return OfferNack
	}

	if len(u.queue) >= u.cfg.QueueDepth {
		u.ctr.nackQueueFull.Inc()
		return OfferNack
	}

	req := flushReq{
		addr:    addr,
		isHit:   meta.Hit,
		isDirty: meta.Hit && meta.Dirty,
		isClean: clean,
		txn:     u.cfg.Txns.Next(),
	}
	u.queue = append(u.queue, req) //skipit:ignore hotalloc CBO queue is bounded by QueueDepth backpressure; append reuses its backing after warmup
	u.counter++
	u.ctr.enqueued.Inc()
	u.rec.Record(now, trace.RecCboEnqueue, trace.CboKind(clean), req.txn, addr, uint64(len(u.queue)))
	return OfferAccepted
}

// Flushing mirrors the §5.3 "flushing" output: true while any CBO.X request
// is pending in the queue or in an FSHR. Fences may commit only while it is
// low.
func (u *FlushUnit) Flushing() bool { return u.counter > 0 }

// PendingCount returns the flush counter value, for assertions.
func (u *FlushUnit) PendingCount() int { return u.counter }

// resident is the number of requests held by FSHRs: the flush counter less
// the queued ones. The §5.2 counter invariant (sim.CheckInvariants) holds it
// equal to ActiveFSHRs, so while it is 0 no FSHR needs a visit.
func (u *FlushUnit) resident() int { return u.counter - len(u.queue) }

// FlushRdy mirrors the §5.4.1 flush_rdy output: low from FSHR allocation
// until the FSHR has written metadata and released the line to L2 (i.e.
// reached root_release_ack). The probe unit must not handle probes and the
// MSHRs must not evict lines while it is low.
func (u *FlushUnit) FlushRdy() bool { return u.preAck == 0 }

// Tick advances the unit by one cycle: it first steps every FSHR that has
// work (meta_write through root_release; an invalid FSHR and one waiting in
// root_release_ack do nothing), then — if the probe unit and writeback unit
// are quiescent (probe_rdy and wb_rdy high, §5.4) — dequeues at most one
// request into a free FSHR, allocated round-robin.
func (u *FlushUnit) Tick(now int64, probeRdy, wbRdy bool) {
	resident := u.resident()
	// Stepping FSHR i changes only FSHR i, so walking a copy of the mask
	// visits the FSHRs a walk over every state would find busy.
	for m := u.preAck; m != 0; m &= m - 1 {
		u.stepFSHR(now, bits.TrailingZeros64(m))
	}
	// Stepping frees no FSHR (only OnRootReleaseAck does), so the resident
	// count still holds.
	u.ctr.queueDepth.Set(int64(len(u.queue)))
	u.ctr.fshrOccupancy.Set(int64(resident))
	u.dequeue(now, probeRdy, wbRdy)
}

// dequeue is Tick's second half: the flush queue head's arbitration for a
// free FSHR.
func (u *FlushUnit) dequeue(now int64, probeRdy, wbRdy bool) {
	if len(u.queue) == 0 {
		return
	}
	// Stall attribution (§5.4): record why the queue head cannot dequeue
	// this cycle. wb_rdy takes priority in the report, matching the
	// arbitration order of Fig. 8.
	if !wbRdy {
		u.ctr.stallWBRdy.Inc()
		return
	}
	if !probeRdy {
		u.ctr.stallProbeRdy.Inc()
		return
	}
	// An FSHR may already be handling this line (it stays busy until the
	// ack arrives); a second concurrent handler would race on metadata.
	head := u.queue[0]
	if u.fshrFor(head.addr) != nil {
		u.ctr.stallSameLine.Inc()
		return
	}
	if u.fshrQuotaFull(now) {
		u.ctr.stallFSHRFull.Inc()
		return
	}
	for n := 0; n < len(u.fshrs); n++ {
		i := (u.nextRR + n) % len(u.fshrs)
		if u.fshrs[i].active() {
			continue
		}
		u.nextRR = (i + 1) % len(u.fshrs)
		copy(u.queue, u.queue[1:])
		u.queue = u.queue[:len(u.queue)-1]
		u.fshrs[i].allocate(head, now)
		u.preAck |= 1 << i // every plan starts before root_release_ack
		u.rec.Record(now, trace.RecFSHRAlloc, trace.CboKind(head.isClean), head.txn, head.addr, uint64(i))
		// Give the freshly allocated FSHR its first state's work this
		// cycle, mirroring hardware where allocation and the first
		// state action share the dequeue cycle boundary.
		u.stepFSHR(now, i)
		return
	}
	u.ctr.stallFSHRFull.Inc()
}

// NextEvent reports the earliest future cycle at which the flush unit can
// change state without external input, for the fast-forward clock. A
// non-empty queue runs dequeue arbitration (and its stall-attribution
// counters) every cycle; any FSHR that has not yet sent its RootRelease acts
// every cycle too. FSHRs parked in root_release_ack are woken by a TL-D
// delivery, which the link itself reports as an event.
//
//skipit:hotpath
func (u *FlushUnit) NextEvent(now int64) int64 {
	if len(u.queue) > 0 || u.preAck != 0 {
		return now + 1
	}
	return tilelink.NoEvent
}

// OnRootReleaseAck routes a RootReleaseAck from TL-D to the FSHR waiting on
// that line. On a completed CBO.CLEAN the line — if still resident and
// clean — is now persisted end-to-end, so with Skip It the skip bit is set;
// this is the hardware analogue of FliT marking a location flushed.
func (u *FlushUnit) OnRootReleaseAck(now int64, addr uint64) {
	addr = u.lineAddr(addr)
	for i := range u.fshrs {
		f := &u.fshrs[i]
		if f.state != FSHRRootReleaseAck || f.req.addr != addr {
			continue
		}
		if u.cfg.SkipIt && f.req.isClean {
			if m := u.ports.MetaLineState(addr); m.Hit && !m.Dirty {
				u.ports.MetaSetSkip(addr, true)
				u.ctr.skipBitsSet.Inc()
			}
		}
		u.rec.Record(now, trace.RecFSHRAck, trace.CboKind(f.req.isClean), f.req.txn, addr, uint64(now-f.allocAt))
		u.ctr.flushLatency.Observe(uint64(now - f.allocAt))
		f.state = FSHRInvalid
		f.bufferFilled = false
		u.counter--
		if u.counter < 0 {
			panic("core: flush counter underflow")
		}
		return
	}
	panic(fmt.Sprintf("core: RootReleaseAck for %#x with no waiting FSHR", addr))
}

// ProbeInvalidate implements the §5.4.1 probe_invalidate input: a coherence
// probe that downgrades the line's permissions updates the snapshot bits of
// matching queued requests so they execute with valid metadata. A probe to
// None removes the line (hit and dirty cleared); a probe to Branch extracts
// dirty data but keeps a readable copy (dirty cleared).
func (u *FlushUnit) ProbeInvalidate(addr uint64, cap tilelink.Cap) {
	if cap == tilelink.CapToN || cap == tilelink.CapToB {
		u.ctr.probeInvals.Add(u.downgradeQueued(u.lineAddr(addr), cap == tilelink.CapToN))
	}
}

// EvictInvalidate implements the §5.4.2 counterpart for cache-line eviction:
// the writeback unit releases the line to L2, so queued requests for it no
// longer hit.
func (u *FlushUnit) EvictInvalidate(addr uint64) {
	u.ctr.evictInvals.Add(u.downgradeQueued(u.lineAddr(addr), true))
}

// downgradeQueued applies a metadata write to the snapshots of the requests
// queued for a line: the line is gone (invalidate) or no longer dirty. It
// returns how many snapshots changed.
func (u *FlushUnit) downgradeQueued(addr uint64, invalidate bool) (changed uint64) {
	for i := range u.queue {
		q := &u.queue[i]
		if q.addr != addr || !(q.isDirty || invalidate && q.isHit) {
			continue
		}
		changed++
		q.isDirty = false
		q.isHit = q.isHit && !invalidate
	}
	return changed
}

// LoadConflict implements the §5.3 load rules for a load that *missed* in
// the L1. If an FSHR handling the same line has filled its data buffer, the
// data is forwarded to the load. If an FSHR is handling the line without a
// filled buffer, the load must be nacked. Entries that are only queued never
// conflict with loads: a load hit leaves metadata untouched, and a load miss
// cannot alias a queued hit entry.
func (u *FlushUnit) LoadConflict(addr uint64) (forward *tilelink.Line, nack bool) {
	f := u.fshrFor(addr)
	if f == nil {
		return nil, false
	}
	if f.bufferFilled {
		// The returned pointer aliases the FSHR's buffer: the caller
		// reads the word it needs in the same cycle.
		return &f.buffer, false
	}
	return nil, true
}

// StoreConflict implements the §5.3 store rules: a store to a line with a
// pending writeback is nacked unless (1) an FSHR is allocated for the line,
// (2) it is executing a CBO.CLEAN, and (3) the line was not dirty or the
// FSHR has already captured the dirty data in its buffer. Queued (not yet
// executing) entries always nack the store, so their snapshot metadata stays
// valid.
func (u *FlushUnit) StoreConflict(addr uint64) (nack bool) {
	addr = u.lineAddr(addr)
	for _, q := range u.queue {
		if q.addr == addr {
			return true
		}
	}
	f := u.fshrFor(addr)
	if f == nil {
		return false
	}
	if !f.req.isClean {
		return true
	}
	if f.req.isDirty && !f.bufferFilled {
		return true
	}
	return false
}

// ActiveOn reports whether the unit holds any request for addr's line, in
// the queue or in an FSHR. The system invariant checker uses it: a stale
// set skip bit on a clean line whose writeback is still in flight is the
// one sanctioned exception to the §6.2 equivalence.
func (u *FlushUnit) ActiveOn(addr uint64) bool {
	addr = u.lineAddr(addr)
	if u.fshrFor(addr) != nil {
		return true
	}
	for _, q := range u.queue {
		if q.addr == addr {
			return true
		}
	}
	return false
}

// QueuedConflict reports whether a request for addr's line is pending in the
// flush queue. The data cache nacks load misses against such lines: the miss
// would install the line and invalidate the queued request's metadata
// snapshot, which §5.3 requires to stay unmodified by the same core.
func (u *FlushUnit) QueuedConflict(addr uint64) bool {
	addr = u.lineAddr(addr)
	for _, q := range u.queue {
		if q.addr == addr {
			return true
		}
	}
	return false
}

// VictimBlocked reports whether the MSHRs must not evict the given line
// because the flush unit has a pending request for it. FSHR-active lines are
// covered by FlushRdy; queued entries are protected here so the eviction's
// EvictInvalidate and the dequeue cannot race within a cycle.
func (u *FlushUnit) VictimBlocked(addr uint64) bool {
	addr = u.lineAddr(addr)
	for _, q := range u.queue {
		if q.addr == addr {
			return true
		}
	}
	return u.fshrFor(addr) != nil
}

// QueueLen returns the current flush queue occupancy.
func (u *FlushUnit) QueueLen() int { return len(u.queue) }

// ActiveFSHRs recounts the FSHRs holding a request from their states. The
// unit itself reads the count off the flush counter (resident); the
// invariant checker holds the two equal.
func (u *FlushUnit) ActiveFSHRs() int {
	n := 0
	for i := range u.fshrs {
		if u.fshrs[i].active() {
			n++
		}
	}
	return n
}

// PreAckFSHRs returns the mask of FSHRs the unit steps each cycle: bit i
// set while FSHR i holds a request not yet at root_release_ack.
func (u *FlushUnit) PreAckFSHRs() uint64 { return u.preAck }

// CountPreAckFSHRs rebuilds that mask from the FSHR states, for the
// invariant checker to hold PreAckFSHRs against.
func (u *FlushUnit) CountPreAckFSHRs() uint64 {
	var m uint64
	for i := range u.fshrs {
		if u.fshrs[i].busyPreAck() {
			m |= 1 << i
		}
	}
	return m
}

// FSHRStates returns a snapshot of all FSHR states, for tests and tracing.
func (u *FlushUnit) FSHRStates() []FSHRState {
	out := make([]FSHRState, len(u.fshrs))
	for i := range u.fshrs {
		out[i] = u.fshrs[i].state
	}
	return out
}

// Reset drops all state, e.g. on simulated crash.
func (u *FlushUnit) Reset() {
	u.queue = u.queue[:0]
	for i := range u.fshrs {
		u.fshrs[i] = fshr{}
	}
	u.counter = 0
	u.nextRR = 0
	u.preAck = 0
}

func (u *FlushUnit) fshrFor(addr uint64) *fshr {
	if u.resident() == 0 {
		return nil
	}
	addr = u.lineAddr(addr)
	for i := range u.fshrs {
		if u.fshrs[i].active() && u.fshrs[i].req.addr == addr {
			return &u.fshrs[i]
		}
	}
	return nil
}
