package l1

import (
	"fmt"

	"skipit/internal/core"
	"skipit/internal/metrics"
	"skipit/internal/tilelink"
)

// CanAccept reports whether Submit would accept a request at cycle now: the
// per-cycle fire width and the input pipeline depth both bound acceptance.
func (d *DCache) CanAccept(now int64) bool {
	if len(d.inQ) >= d.cfg.InputDepth {
		return false
	}
	return d.lastAcceptCycle != now || d.acceptedThisCycle < d.cfg.InputWidth
}

// Submit offers an LSU request to the data cache at cycle now. A false
// return means structural rejection (width/depth); the LSU keeps the request
// and re-fires later. Accepted requests produce exactly one Resp, which may
// be a nack.
func (d *DCache) Submit(now int64, req Req) bool {
	if !d.CanAccept(now) {
		return false
	}
	if d.lastAcceptCycle != now {
		d.lastAcceptCycle = now
		d.acceptedThisCycle = 0
	}
	d.acceptedThisCycle++
	d.inQ = append(d.inQ, pendingReq{req: req, readyAt: now + 1}) //skipit:ignore hotalloc inQ is bounded by the accept-width backpressure (CanAccept); append reuses its backing after warmup
	return true
}

// PollResponses returns every response ready at cycle now. The returned
// slice is valid only until the next PollResponses call: it reuses a scratch
// buffer so the steady-state cycle loop does not allocate.
func (d *DCache) PollResponses(now int64) []Resp {
	out := d.respScratch[:0]
	kept := d.respQ[:0]
	for _, r := range d.respQ {
		if r.readyAt <= now {
			out = append(out, r.resp) //skipit:ignore hotalloc scratch-buffer reuse; capacity persists across calls (see doc comment)
		} else {
			kept = append(kept, r) //skipit:ignore hotalloc filter-in-place reslice of respQ; never exceeds the original backing array
		}
	}
	d.respQ = kept
	d.respScratch = out
	return out
}

func (d *DCache) respond(at int64, r Resp) {
	d.respQ = append(d.respQ, timedResp{resp: r, readyAt: at}) //skipit:ignore hotalloc respQ depth is bounded by outstanding requests (ROB-limited); append reuses its backing after warmup
}

// Tick advances the data cache one cycle: ingest TL-D and TL-B, run the
// probe and writeback units, the flush unit, the MSHRs, and finally the
// request pipeline.
func (d *DCache) Tick(now int64) {
	d.sinkD(now)
	d.sinkB(now)
	d.tickProbe(now)
	d.tickWB(now)
	d.flush.Tick(now, d.probeRdy(), d.wb.idle())
	d.tickMSHRs(now)
	d.processRequests(now)
}

// sinkD routes TL-D messages: grants to MSHRs, release acks to the WBU, and
// RootReleaseAcks to the flush unit (§5.2 state 6).
func (d *DCache) sinkD(now int64) {
	for {
		msg, ok := d.port.D.Recv(now)
		if !ok {
			return
		}
		switch msg.Op {
		case tilelink.OpGrant, tilelink.OpGrantData, tilelink.OpGrantDataDirty:
			d.onGrant(now, msg)
		case tilelink.OpReleaseAck:
			d.onReleaseAck(now, msg)
		case tilelink.OpRootReleaseAck:
			d.flush.OnRootReleaseAck(now, msg.Addr)
		default:
			panic(fmt.Sprintf("l1[%d]: %v on channel D", d.cfg.Source, msg.Op))
		}
	}
}

// sinkB queues incoming probes for the probe unit.
func (d *DCache) sinkB(now int64) {
	for {
		msg, ok := d.port.B.Recv(now)
		if !ok {
			return
		}
		if msg.Op != tilelink.OpProbe {
			panic(fmt.Sprintf("l1[%d]: %v on channel B", d.cfg.Source, msg.Op))
		}
		d.enqueueProbe(msg)
	}
}

// processRequests serves the input pipeline in order. A request that cannot
// be served produces a nack response; the pipeline never reorders requests
// for the same cycle, mirroring the cache's in-order request bus.
func (d *DCache) processRequests(now int64) {
	kept := d.inQ[:0]
	for _, p := range d.inQ {
		if p.readyAt > now {
			kept = append(kept, p) //skipit:ignore hotalloc filter-in-place reslice of inQ; never exceeds the original backing array
			continue
		}
		d.process(now, p.req)
	}
	d.inQ = kept
}

func (d *DCache) process(now int64, req Req) {
	lineAddr := d.lineAddr(req.Addr)

	// A probe mid-downgrade on this line makes its state transient; nack
	// and let the LSU retry, as the blocked metadata port would.
	if d.probe.state != pIdle && d.lineAddr(d.probe.cur.Addr) == lineAddr {
		d.nack(now, req, d.ctr.nackProbeTransient)
		return
	}

	if d.chaos != nil && d.chaos.ForceNack(now) {
		d.nack(now, req, d.ctr.nackChaos)
		return
	}

	// ECC check-on-access: any request touching a poisoned line detects the
	// corruption here; the line is invalidated and the request proceeds as
	// a miss, refetching the intact copy from the L2.
	if len(d.poisoned) != 0 {
		d.eccScrub(now, lineAddr)
	}

	switch req.Kind {
	case CboClean, CboFlush:
		d.processCbo(now, req, lineAddr)
	case CflushDL1:
		d.processCflushDL1(now, req, lineAddr)
	case Load:
		d.processLoad(now, req, lineAddr)
	case Store:
		d.processStore(now, req, lineAddr)
	case AmoAdd, AmoSwap:
		d.processAmo(now, req, lineAddr)
	}
}

// processAmo executes an atomic read-modify-write: same permission and
// conflict rules as a store, but the old word value is returned and the
// response waits for the data (no early MSHR acknowledgement).
func (d *DCache) processAmo(now int64, req Req, lineAddr uint64) {
	d.ctr.stores.Inc()
	if d.flush.StoreConflict(lineAddr) {
		d.nack(now, req, d.ctr.nackFlushConflict)
		return
	}
	if d.mshrFor(lineAddr) != nil {
		d.missPath(now, req, lineAddr)
		return
	}
	if meta := d.lookup(lineAddr); meta != nil && meta.perm.CanWrite() {
		set := d.index(lineAddr)
		way := d.findWay(lineAddr, true)
		old := d.amoApply(set, way, req)
		meta.dirty = true
		meta.lastUsed = now
		d.ctr.storeHits.Inc()
		d.respond(now+int64(d.cfg.HitLatency), Resp{ID: req.ID, Data: old})
		return
	}
	d.ctr.storeMisses.Inc()
	d.missPath(now, req, lineAddr)
}

// amoApply performs the read-modify-write on the data array and returns the
// old value.
func (d *DCache) amoApply(set, way int, req Req) uint64 {
	old := d.readWord(set, way, req.Addr)
	switch req.Kind {
	case AmoAdd:
		d.writeWord(set, way, req.Addr, old+req.Data)
	case AmoSwap:
		d.writeWord(set, way, req.Addr, req.Data)
	default:
		panic("l1: amoApply on non-AMO request")
	}
	return old
}

// processCflushDL1 implements the SiFive vendor instruction: evict the line
// from the L1 to the L2 via the writeback unit. A miss completes
// immediately; a hit needs the WBU free (one eviction at a time) and must
// not collide with the flush unit's bookkeeping: neither a queued request
// nor an active FSHR may hold the line. While an FSHR's RootRelease is
// still writing the line's older data to DRAM, the write's completion
// would mark the evicted newer data clean in the L2.
func (d *DCache) processCflushDL1(now int64, req Req, lineAddr uint64) {
	// An in-flight miss will install the line after us; wait for it so
	// the eviction actually evicts (same hazard as processCbo).
	if d.mshrFor(lineAddr) != nil {
		d.nack(now, req, d.ctr.nackMSHRBusy)
		return
	}
	meta := d.lookup(lineAddr)
	if meta == nil {
		// Not in L1: nothing to evict (the instruction makes no
		// guarantee about deeper levels — its §2.6 limitation).
		d.respond(now+int64(d.cfg.CboLatency), Resp{ID: req.ID})
		return
	}
	if d.flush.VictimBlocked(lineAddr) || !d.flush.FlushRdy() || !d.wb.idle() {
		d.nack(now, req, d.ctr.nackFlushConflict)
		return
	}
	d.flush.EvictInvalidate(lineAddr)
	d.clearPoison(lineAddr)
	way := d.findWay(lineAddr, true)
	set := d.index(lineAddr)
	d.wb.start(lineAddr, d.row(set, way), meta.dirty, meta.perm, d.cfg.Txns.Next())
	d.ctr.writebacks.Inc()
	meta.valid = false
	meta.dirty = false
	meta.skip = false
	d.respond(now+int64(d.cfg.CboLatency), Resp{ID: req.ID})
}

func (d *DCache) processCbo(now int64, req Req, lineAddr uint64) {
	// A CBO.X against a line with an in-flight miss would snapshot stale
	// metadata (the MSHR's install and replays have not happened yet);
	// nack until the miss completes.
	if d.mshrFor(lineAddr) != nil {
		d.nack(now, req, d.ctr.nackMSHRBusy)
		return
	}
	meta := core.LineMeta{}
	if m := d.lookup(lineAddr); m != nil {
		meta = core.LineMeta{Hit: true, Dirty: m.dirty, Perm: m.perm, Skip: m.skip}
	}
	switch d.flush.Offer(now, lineAddr, req.Kind == CboClean, meta) {
	case core.OfferAccepted, core.OfferDropped:
		// Buffered or eliminated: the instruction is complete for the
		// LSU (§5.2) once it clears the cache pipeline. CBO.X requests
		// traverse the longer metadata-snapshot + flush-queue
		// arbitration path before success is signaled.
		d.respond(now+int64(d.cfg.CboLatency), Resp{ID: req.ID})
	case core.OfferNack:
		d.nack(now, req, d.ctr.nackFlushConflict)
	}
}

func (d *DCache) processLoad(now int64, req Req, lineAddr uint64) {
	d.ctr.loads.Inc()
	// A line with an active MSHR must be accessed through it: older
	// buffered requests (e.g. the store of a BtoT upgrade) replay in
	// arrival order, and a direct hit on the still-valid old copy would
	// read stale data or reorder ahead of them (§3.3). The replay queue
	// either takes the request as a secondary or nacks it.
	if d.mshrFor(lineAddr) != nil {
		d.missPath(now, req, lineAddr)
		return
	}
	if meta := d.lookup(lineAddr); meta != nil && meta.perm.CanRead() {
		set := d.index(lineAddr)
		way := d.findWay(lineAddr, true)
		meta.lastUsed = now
		d.ctr.loadHits.Inc()
		d.respond(now+int64(d.cfg.HitLatency), Resp{ID: req.ID, Data: d.readWord(set, way, req.Addr)})
		return
	}
	// Miss: consult the flush unit first (§5.3). A miss on a line with a
	// queued flush request would install the line and invalidate the
	// queued snapshot; nack until the request executes. A filled FSHR
	// buffer forwards; an unfilled one nacks.
	if d.flush.QueuedConflict(lineAddr) {
		d.nack(now, req, d.ctr.nackFlushConflict)
		return
	}
	if fwd, mustNack := d.flush.LoadConflict(lineAddr); mustNack {
		d.nack(now, req, d.ctr.nackFlushConflict)
		return
	} else if fwd != nil {
		off := req.Addr & (d.cfg.LineBytes - 1)
		var v uint64
		for i := uint64(0); i < 8; i++ {
			v |= uint64(fwd[off+i]) << (8 * i)
		}
		d.ctr.fshrForwards.Inc()
		d.respond(now+int64(d.cfg.HitLatency), Resp{ID: req.ID, Data: v})
		return
	}
	d.ctr.loadMisses.Inc()
	d.missPath(now, req, lineAddr)
}

func (d *DCache) processStore(now int64, req Req, lineAddr uint64) {
	d.ctr.stores.Inc()
	// §5.3 store rules come first: even a would-be hit must nack while the
	// flush unit holds a conflicting request.
	if d.flush.StoreConflict(lineAddr) {
		d.nack(now, req, d.ctr.nackFlushConflict)
		return
	}
	// Same MSHR-serialization rule as loads (§3.3: consecutive writes
	// must not reorder around the replay queue).
	if d.mshrFor(lineAddr) != nil {
		d.missPath(now, req, lineAddr)
		return
	}
	if meta := d.lookup(lineAddr); meta != nil && meta.perm.CanWrite() {
		set := d.index(lineAddr)
		way := d.findWay(lineAddr, true)
		d.writeWord(set, way, req.Addr, req.Data)
		meta.dirty = true
		meta.lastUsed = now
		d.ctr.storeHits.Inc()
		d.respond(now+int64(d.cfg.HitLatency), Resp{ID: req.ID})
		return
	}
	d.ctr.storeMisses.Inc()
	d.missPath(now, req, lineAddr)
}

// missPath allocates or joins an MSHR for a missing line. Stores are
// acknowledged at acceptance (the ROB considers them complete once in the
// data cache, §3.3); loads respond at replay.
func (d *DCache) missPath(now int64, req Req, lineAddr uint64) {
	// TileLink forbids a master from acquiring a block while its own
	// Release for that block still awaits a ReleaseAck: the L2 would
	// register the fresh grant and then process the stale Release,
	// deregistering a copy we still hold. Hold the miss until the
	// writeback unit drains (the ack window is bounded).
	if !d.wb.idle() && d.wb.addr == lineAddr {
		d.nack(now, req, d.ctr.nackMSHRBusy)
		return
	}
	if m := d.mshrFor(lineAddr); m != nil {
		if !m.canAcceptSecondary(req, d.cfg.RPQDepth) {
			d.nack(now, req, d.ctr.nackMSHRFull)
			return
		}
		m.rpq = append(m.rpq, req) //skipit:ignore hotalloc replay queue is bounded by RPQDepth (checked above); append reuses its backing after warmup
		// Plain stores are complete once buffered (§3.3); loads and
		// AMOs respond at replay with their data.
		if req.Kind == Store {
			d.respond(now+int64(d.cfg.HitLatency), Resp{ID: req.ID})
		}
		return
	}
	m := d.freeMSHR(now)
	if m == nil {
		d.nack(now, req, d.ctr.nackMSHRFull)
		return
	}
	d.allocMSHR(now, m, req)
	if req.Kind == Store {
		d.respond(now+int64(d.cfg.HitLatency), Resp{ID: req.ID})
	}
}

// nack rejects a request, attributing it to exactly one cause counter.
func (d *DCache) nack(now int64, req Req, cause *metrics.Counter) {
	d.ctr.nacks.Inc()
	cause.Inc()
	d.respond(now+1, Resp{ID: req.ID, Nack: true})
}
