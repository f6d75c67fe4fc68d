package l2

import (
	"fmt"
	"math/bits"

	"skipit/internal/mem"
	"skipit/internal/tilelink"
	"skipit/internal/trace"
)

// mshrState sequences an L2 transaction. Acquire transactions walk
// evict->memRead/probe->grant->grantAck; RootRelease transactions walk
// probe->memWrite->finish (§5.5).
type msState uint8

const (
	msFree msState = iota
	msStart
	msEvictProbe    // probing owners of the victim line
	msEvictMemWrite // writing the dirty victim back to DRAM
	msMemRead       // reading the missing line from DRAM
	msProbe         // probing owners of the requested line
	msMemWrite      // RootRelease: writing the dirty line to DRAM
	msGrant         // Acquire: send Grant*, wait for GrantAck
	msFinish        // RootRelease: send RootReleaseAck / ReleaseAck
)

type txnKind uint8

const (
	txnAcquire txnKind = iota
	txnRootRelease
)

// mshr is one L2 miss status holding register.
type mshr struct {
	state  msState
	kind   txnKind
	addr   uint64
	client int
	since  int64 // cycle the MSHR may begin work (tag pipeline latency)
	// txn is the initiating client's transaction id, echoed on every probe,
	// grant, ack and memory request this MSHR issues so the whole chain
	// shares one causal span. Eviction sub-actions inherit it.
	txn uint64

	// Acquire fields.
	grow tilelink.Grow

	// RootRelease fields.
	clean bool
	// raced marks dirty RootRelease data whose line was evicted while the
	// message was in flight; wbData holds it, written straight to DRAM
	// (see sinkC).
	raced  bool
	wbData tilelink.Line

	pendingProbes int
	memSubmitted  bool // current memory request accepted by the controller

	// Victim bookkeeping for Acquire misses.
	victimSet, victimWay int
	hasVictim            bool
}

// nextBusy returns the index of the first busy MSHR at or after i, or -1. A
// walk `for i := c.nextBusy(0); i >= 0; i = c.nextBusy(i + 1)` rereads the
// mask at every step, so it visits exactly the MSHRs a scan of every state
// would find busy, in the same order.
func (c *Cache) nextBusy(i int) int {
	if b := c.busy >> uint(i); b != 0 {
		return i + bits.TrailingZeros64(b)
	}
	return -1
}

// freeMSHR returns the lowest unused MSHR's index, or -1, honoring an armed
// chaos capacity squeeze: a quota below the configured count makes the cache
// behave as if built with fewer MSHRs for the window, without cancelling
// in-flight transactions.
func (c *Cache) freeMSHR(now int64) int {
	limit := len(c.mshrs)
	if c.chaos != nil {
		if q := c.chaos.MSHRQuota(now); q >= 0 && q < limit {
			limit = q
		}
	}
	if bits.OnesCount64(c.busy) >= limit {
		return -1
	}
	// Fewer than len(c.mshrs) bits are set, so a clear one lies below it.
	return bits.TrailingZeros64(^c.busy)
}

// release frees m and clears its busy bit.
func (c *Cache) release(m *mshr) {
	i := c.mshrIndex(m)
	c.busy &^= 1 << i
	c.evicting &^= 1 << i
	*m = mshr{}
}

// mshrFor returns the active MSHR transacting on addr's line, if any. L2
// serializes transactions per line.
func (c *Cache) mshrFor(addr uint64) *mshr {
	for b := c.busy; b != 0; b &= b - 1 {
		if i := bits.TrailingZeros64(b); c.lines[i].addr == addr {
			return &c.mshrs[i]
		}
	}
	return nil
}

// lineBusy reports whether addr's line is under an active transaction,
// either directly or as the victim of an in-flight eviction; buffered
// requests for it must wait. It reads the busy-line table, not the MSHRs.
func (c *Cache) lineBusy(addr uint64) bool {
	for b := c.busy; b != 0; b &= b - 1 {
		if c.lines[bits.TrailingZeros64(b)].addr == addr {
			return true
		}
	}
	for b := c.evicting; b != 0; b &= b - 1 {
		if c.lines[bits.TrailingZeros64(b)].victim == addr {
			return true
		}
	}
	return false
}

// mshrIndex returns busy MSHR m's index, the tag its memory requests carry.
func (c *Cache) mshrIndex(m *mshr) int {
	for i := c.nextBusy(0); i >= 0; i = c.nextBusy(i + 1) {
		if &c.mshrs[i] == m {
			return i
		}
	}
	panic("l2: foreign mshr")
}

// sendProbe queues a Probe to client via SourceB and counts it against m.
func (c *Cache) sendProbe(now int64, m *mshr, client int, addr uint64, cap tilelink.Cap) {
	c.outB[client] = append(c.outB[client], tilelink.Msg{ //skipit:ignore hotalloc per-client outB depth is bounded by outstanding probes (one per MSHR); append reuses its backing after warmup
		Op:   tilelink.OpProbe,
		Addr: addr,
		Cap:  cap,
		Txn:  m.txn,
	})
	m.pendingProbes++
	c.ctr.probesSent.Inc()
	c.rec.Record(now, trace.RecProbe, trace.CauseNone, m.txn, addr, uint64(client))
}

// startAcquire begins serving an Acquire that has an allocated MSHR.
func (c *Cache) startAcquire(now int64, m *mshr) {
	l := c.lookup(m.addr)
	if l == nil {
		// Miss: evict a victim if the set is full, then read from DRAM.
		set := c.index(m.addr)
		way := c.pickVictim(set)
		if way < 0 {
			return // all ways under transaction; stay in msStart
		}
		v := c.frame(set, way)
		v.reserved = true
		if v.valid {
			m.victimSet, m.victimWay = set, way
			m.hasVictim = true
			victimAddr := c.addrOf(set, v.tag)
			// The eviction makes the victim's line busy until
			// submitMemRead ends it.
			i := c.mshrIndex(m)
			c.evicting |= 1 << i
			c.lines[i].victim = victimAddr
			// Inclusive policy: revoke all client copies of the
			// victim before dropping it (§3.4).
			probed := false
			for cl, p := range c.permsOf(v) {
				if p != tilelink.PermNone {
					c.sendProbe(now, m, cl, victimAddr, tilelink.CapToN)
					probed = true
				}
			}
			c.ctr.evictions.Inc()
			if probed {
				m.state = msEvictProbe
				return
			}
			c.finishEvict(now, m)
			return
		}
		m.victimSet, m.victimWay = set, way
		m.hasVictim = false
		c.submitMemRead(now, m)
		return
	}

	// Hit: revoke or downgrade other owners as the requested growth
	// demands.
	c.probeForAcquire(now, m, l)
	if m.pendingProbes > 0 {
		m.state = msProbe
		return
	}
	c.sendGrant(now, m)
}

// probeForAcquire issues the probes an Acquire hit requires: exclusive
// growth revokes every other copy; shared growth downgrades a foreign trunk
// to branch (extracting its dirty data).
func (c *Cache) probeForAcquire(now int64, m *mshr, l *line) {
	switch m.grow {
	case tilelink.GrowNtoT, tilelink.GrowBtoT:
		for cl, p := range c.permsOf(l) {
			if cl != m.client && p != tilelink.PermNone {
				c.sendProbe(now, m, cl, m.addr, tilelink.CapToN)
			}
		}
	case tilelink.GrowNtoB:
		for cl, p := range c.permsOf(l) {
			if cl != m.client && p == tilelink.PermTrunk {
				c.sendProbe(now, m, cl, m.addr, tilelink.CapToB)
			}
		}
	}
}

// startRootRelease begins serving a RootRelease (§5.5). The carried dirty
// data, if any, was already applied to the BankedStore at SinkC. Probing and
// revocation happen even if the requesting core did not possess the line.
func (c *Cache) startRootRelease(now int64, m *mshr) {
	c.ctr.rootReleases.Inc()
	c.rec.Record(now, trace.RecRootRelease, trace.CboKind(m.clean), m.txn, m.addr, uint64(m.client))
	l := c.lookup(m.addr)
	if l == nil {
		if m.raced {
			// The flush raced an eviction: the RootRelease data
			// arrived after the L2 dropped the line, so it never
			// reached the BankedStore. It is the freshest copy —
			// write it through to DRAM before acknowledging.
			c.rec.Record(now, trace.RecSkipAudit, trace.CauseRootReleaseRace, m.txn, m.addr, 1)
			m.state = msMemWrite
			if c.mem.Submit(now, mem.Request{Kind: mem.Write, Addr: m.addr, Data: m.wbData, Tag: c.mshrIndex(m), Txn: m.txn}) {
				c.ctr.memWrites.Inc()
				m.memSubmitted = true
			} else {
				m.memSubmitted = false
			}
			return
		}
		// Inclusive L2 without the line: no cached copy exists
		// anywhere, so DRAM already holds the authoritative data.
		// Acknowledge immediately (the §5.5 trivial skip).
		c.ctr.rootReleaseSkips.Inc()
		// Skip-audit: no LLC copy, nothing to write back.
		c.rec.Record(now, trace.RecSkipAudit, trace.CauseMissNoCopy, m.txn, m.addr, 0)
		m.state = msFinish
		return
	}
	if m.raced {
		// The line was evicted and then re-installed between SinkC and
		// dispatch; apply the carried data now, exactly as SinkC would
		// have with the line present.
		*c.dataOf(l) = m.wbData
		l.dirty = true
		c.clearPoison(m.addr)
		m.raced = false
	}

	if m.clean {
		// RootReleaseClean: extract dirty data from a foreign trunk
		// owner, if one exists; copies stay readable.
		for cl, p := range c.permsOf(l) {
			if cl != m.client && p == tilelink.PermTrunk {
				c.sendProbe(now, m, cl, m.addr, tilelink.CapToB)
			}
		}
	} else {
		// RootReleaseFlush: revoke every copy, including any stale
		// registration of the requester (its L1 already invalidated
		// its own copy in the FSHR meta_write state and reported so
		// in the RootRelease).
		c.permsOf(l)[m.client] = tilelink.PermNone
		for cl, p := range c.permsOf(l) {
			if cl != m.client && p != tilelink.PermNone {
				c.sendProbe(now, m, cl, m.addr, tilelink.CapToN)
			}
		}
	}
	if m.pendingProbes > 0 {
		m.state = msProbe
		return
	}
	c.rootReleaseWriteback(now, m)
}

// rootReleaseWriteback writes the line to DRAM if it is dirty anywhere in
// the L2's domain, then finishes. The LLC's trivial skip (§5.5, §7.4) lives
// here: a clean line means no DRAM write and an immediate acknowledgement.
func (c *Cache) rootReleaseWriteback(now int64, m *mshr) {
	l := c.lookup(m.addr)
	if l == nil || !l.dirty {
		c.ctr.rootReleaseSkips.Inc()
		// Skip-audit: the §5.5 trivial skip — clean in the LLC, no DRAM
		// write issued.
		c.rec.Record(now, trace.RecSkipAudit, trace.CauseCleanLine, m.txn, m.addr, 0)
		c.finishRootRelease(m)
		return
	}
	m.state = msMemWrite
	// Skip-audit: dirty in the LLC — the flush issues a real DRAM write.
	c.rec.Record(now, trace.RecSkipAudit, trace.CauseDirtyLine, m.txn, m.addr, 1)
	if c.mem.Submit(now, mem.Request{Kind: mem.Write, Addr: m.addr, Data: *c.dataOf(l), Tag: c.mshrIndex(m), Txn: m.txn}) {
		c.ctr.memWrites.Inc()
		m.memSubmitted = true
	} else {
		// Memory controller busy: retry from Tick next cycle.
		m.memSubmitted = false
	}
}

// finishRootRelease invalidates the L2 copy for flushes and queues the
// RootReleaseAck.
func (c *Cache) finishRootRelease(m *mshr) {
	if !m.clean {
		if l := c.lookup(m.addr); l != nil {
			l.valid = false
			l.dirty = false
			perms := c.permsOf(l)
			for i := range perms {
				perms[i] = tilelink.PermNone
			}
			c.clearPoison(m.addr)
		}
	}
	m.state = msFinish
}

// finishEvict runs after the victim's probes are answered: write back the
// victim if dirty, then read the requested line.
func (c *Cache) finishEvict(now int64, m *mshr) {
	v := c.frame(m.victimSet, m.victimWay)
	if v.dirty {
		victimAddr := c.addrOf(m.victimSet, v.tag)
		m.state = msEvictMemWrite
		if c.mem.Submit(now, mem.Request{Kind: mem.Write, Addr: victimAddr, Data: *c.dataOf(v), Tag: c.mshrIndex(m), Txn: m.txn}) {
			c.ctr.memWrites.Inc()
			m.memSubmitted = true
		} else {
			m.memSubmitted = false
		}
		return
	}
	v.valid = false
	c.clearPoison(c.addrOf(m.victimSet, v.tag))
	c.submitMemRead(now, m)
}

// submitMemRead issues the DRAM read for an Acquire miss (retrying while the
// controller is busy).
func (c *Cache) submitMemRead(now int64, m *mshr) {
	m.state = msMemRead
	i := c.mshrIndex(m)
	c.evicting &^= 1 << i // any eviction is over: the victim is gone
	if c.mem.Submit(now, mem.Request{Kind: mem.Read, Addr: m.addr, Tag: i, Txn: m.txn}) {
		c.ctr.memReads.Inc()
		m.memSubmitted = true
	} else {
		m.memSubmitted = false
	}
}

// sendGrant queues the Grant* for a completed Acquire. GrantDataDirty is
// selected when the line is dirty in L2, telling the L1 to leave the skip
// bit unset (§6.1).
func (c *Cache) sendGrant(now int64, m *mshr) {
	l := c.lookup(m.addr)
	if l == nil {
		panic(fmt.Sprintf("l2: grant for absent line %#x", m.addr))
	}
	// The grant is the only reader of clean line data; the ECC model
	// detects a poisoned frame here and restores it from DRAM.
	if !l.dirty {
		c.eccRestore(now, l, m.addr)
	}
	op, cause := tilelink.OpGrantData, trace.CauseNone
	if l.dirty {
		op, cause = tilelink.OpGrantDataDirty, trace.CauseGrantDataDirty
		c.ctr.grantsDataDirty.Inc()
	} else {
		c.ctr.grantsData.Inc()
	}
	c.rec.Record(now, trace.RecGrant, cause, m.txn, m.addr, uint64(m.client))
	capTo := tilelink.CapToT
	if m.grow == tilelink.GrowNtoB {
		capTo = tilelink.CapToB
	}
	c.outD[m.client] = append(c.outD[m.client], tilelink.Msg{ //skipit:ignore hotalloc per-client outD depth is bounded by outstanding transactions; append reuses its backing after warmup
		Op:   op,
		Addr: m.addr,
		Cap:  capTo,
		Data: *c.dataOf(l),
		Txn:  m.txn,
	})
	c.permsOf(l)[m.client] = capTo.Perm()
	l.lastUsed = now
	m.state = msGrant
}

// pickVictim chooses an invalid way if one exists, else the LRU way that is
// not under an active transaction. It makes no slab: a way whose slab is
// unmade is invalid.
func (c *Cache) pickVictim(set int) int {
	for w := 0; w < c.cfg.Ways; w++ {
		if l := c.frameAt(set, w); l == nil || !l.valid && !l.reserved {
			return w
		}
	}
	best, bestUsed := -1, int64(1<<62)
	for w := 0; w < c.cfg.Ways; w++ {
		l := c.frameAt(set, w) // valid or reserved, so its slab exists
		if l.reserved || c.mshrFor(c.addrOf(set, l.tag)) != nil {
			continue
		}
		if l.lastUsed < bestUsed {
			best, bestUsed = w, l.lastUsed
		}
	}
	// best is -1 when every way is under an active transaction; the
	// caller stalls and retries next cycle.
	return best
}
