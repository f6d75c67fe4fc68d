package l2

import (
	"fmt"

	"skipit/internal/mem"
	"skipit/internal/tilelink"
	"skipit/internal/trace"
)

// Tick advances the L2 by one cycle: drain the SourceB/SourceD staging
// queues, retire memory responses, ingest the three client->manager
// channels, retry buffered requests, and advance every MSHR.
func (c *Cache) Tick(now int64) {
	c.drainSources(now)
	c.pollMemory(now)
	for cl := 0; cl < c.cfg.NumClients; cl++ {
		c.sinkE(now, cl)
	}
	for cl := 0; cl < c.cfg.NumClients; cl++ {
		c.sinkC(now, cl)
	}
	for cl := 0; cl < c.cfg.NumClients; cl++ {
		c.sinkA(now, cl)
	}
	c.retryListBuffer(now)
	c.advanceMSHRs(now)
	c.ctr.listBufferDepth.Set(int64(len(c.listBuffer)))
}

// drainSources moves staged B and D messages onto their links as occupancy
// allows, preserving per-client order.
func (c *Cache) drainSources(now int64) {
	for cl := 0; cl < c.cfg.NumClients; cl++ {
		if q := c.outB[cl]; len(q) > 0 {
			if c.ports[cl].B.Send(now, q[0]) {
				copy(q, q[1:])
				c.outB[cl] = q[:len(q)-1]
			} else {
				c.ctr.linkBackpressureB.Inc()
			}
		}
		if q := c.outD[cl]; len(q) > 0 {
			if c.ports[cl].D.Send(now, q[0]) {
				copy(q, q[1:])
				c.outD[cl] = q[:len(q)-1]
			} else {
				c.ctr.linkBackpressureD.Inc()
			}
		}
	}
}

// pollMemory routes DRAM completions to their MSHRs.
func (c *Cache) pollMemory(now int64) {
	for {
		r, ok := c.mem.PollResponse()
		if !ok {
			return
		}
		m := &c.mshrs[r.Tag]
		switch {
		case m.state == msEvictMemWrite && r.Kind == mem.Write:
			v := c.frame(m.victimSet, m.victimWay)
			v.valid = false
			v.dirty = false
			perms := c.permsOf(v)
			for i := range perms {
				perms[i] = tilelink.PermNone
			}
			c.submitMemRead(now, m)
		case m.state == msMemRead && r.Kind == mem.Read:
			c.install(now, m, &r.Data)
		case m.state == msMemWrite && r.Kind == mem.Write:
			if l := c.lookup(m.addr); l != nil {
				l.dirty = false
			}
			c.finishRootRelease(m)
		default:
			panic(fmt.Sprintf("l2: memory %v response for MSHR %d in state %d", r.Kind, r.Tag, m.state))
		}
	}
}

// install writes a refilled line into the reserved way and grants it.
func (c *Cache) install(now int64, m *mshr, data *tilelink.Line) {
	l := c.frame(m.victimSet, m.victimWay)
	l.valid = true
	l.tag = c.tag(m.addr)
	l.dirty = false
	*c.dataOf(l) = *data
	c.clearPoison(m.addr)
	perms := c.permsOf(l)
	for i := range perms {
		perms[i] = tilelink.PermNone
	}
	l.lastUsed = now
	l.reserved = false
	c.sendGrant(now, m)
}

// sinkE consumes GrantAck messages, completing Acquire transactions.
func (c *Cache) sinkE(now int64, cl int) {
	for {
		msg, ok := c.ports[cl].E.Recv(now)
		if !ok {
			return
		}
		if msg.Op != tilelink.OpGrantAck {
			panic(fmt.Sprintf("l2: %v on channel E", msg.Op))
		}
		m := c.mshrFor(msg.Addr)
		if m == nil || m.state != msGrant || m.client != cl {
			panic(fmt.Sprintf("l2: stray GrantAck %#x from client %d", msg.Addr, cl))
		}
		c.release(m)
	}
}

// sinkC ingests the C channel: probe acknowledgements complete outstanding
// probes; voluntary releases apply inline; RootReleases allocate an MSHR or
// wait in the ListBuffer (§5.5).
func (c *Cache) sinkC(now int64, cl int) {
	for {
		msg, ok := c.ports[cl].C.Peek(now)
		if !ok {
			return
		}
		switch msg.Op {
		case tilelink.OpProbeAck, tilelink.OpProbeAckData:
			c.ports[cl].C.Recv(now)
			c.onProbeAck(now, cl, msg)

		case tilelink.OpRelease, tilelink.OpReleaseData:
			c.ports[cl].C.Recv(now)
			c.onRelease(now, cl, msg)

		case tilelink.OpRootReleaseFlush, tilelink.OpRootReleaseClean,
			tilelink.OpRootReleaseFlushData, tilelink.OpRootReleaseCleanData:
			if len(c.listBuffer) >= c.listBufferLimit(now) {
				c.ctr.listBufferStalls.Inc()
				return // back-pressure: leave the message on the link
			}
			c.ports[cl].C.Recv(now)
			// §5.5: dirty data is written to the BankedStore
			// immediately upon arrival.
			raced := false
			if msg.Op.HasData() {
				if l := c.lookup(msg.Addr); l != nil {
					*c.dataOf(l) = msg.Data
					l.dirty = true
					c.clearPoison(msg.Addr)
				} else {
					// The line was evicted while the RootRelease
					// was in flight on the C channel (the FSHR's
					// L1 copy was already invalidated, so the
					// evict probe saw nothing to hold it back).
					// The carried data is the only live copy; the
					// buffered message keeps it for the MSHR's
					// direct DRAM write-through.
					c.ctr.rootReleaseRaces.Inc()
					raced = !c.bugDropRaceWB
				}
			}
			c.listBuffer = append(c.listBuffer, buffered{msg: *msg, client: cl, readyAt: now + int64(c.cfg.TagLatency), raced: raced}) //skipit:ignore hotalloc listBuffer is bounded by cfg.ListBufferDepth; append reuses its backing after warmup

		default:
			panic(fmt.Sprintf("l2: %v on channel C", msg.Op))
		}
	}
}

// onProbeAck applies a probe acknowledgement: directory downgrade for the
// sender, dirty data into the BankedStore, and progress for the MSHR that
// issued the probe.
func (c *Cache) onProbeAck(now int64, cl int, msg *tilelink.Msg) {
	l := c.lookup(msg.Addr)
	if l != nil {
		c.permsOf(l)[cl] = msg.Shrink.To()
		if msg.Op == tilelink.OpProbeAckData {
			*c.dataOf(l) = msg.Data
			l.dirty = true
			c.clearPoison(msg.Addr)
		}
	}
	m := c.probeOwner(msg.Addr)
	if m == nil {
		panic(fmt.Sprintf("l2: ProbeAck %#x without outstanding probe", msg.Addr))
	}
	m.pendingProbes--
	if m.pendingProbes > 0 {
		return
	}
	switch m.state {
	case msEvictProbe:
		c.finishEvict(now, m)
	case msProbe:
		if m.kind == txnAcquire {
			c.sendGrant(now, m)
		} else {
			c.rootReleaseWriteback(now, m)
		}
	default:
		panic(fmt.Sprintf("l2: probes completed in state %d", m.state))
	}
}

// probeOwner finds the MSHR with outstanding probes on addr — either its own
// line or the victim line it is evicting.
func (c *Cache) probeOwner(addr uint64) *mshr {
	for i := c.nextBusy(0); i >= 0; i = c.nextBusy(i + 1) {
		m := &c.mshrs[i]
		if m.pendingProbes == 0 {
			continue
		}
		if m.addr == addr {
			return m
		}
		if m.hasVictim && m.state == msEvictProbe {
			v := c.frame(m.victimSet, m.victimWay)
			if c.addrOf(m.victimSet, v.tag) == addr {
				return m
			}
		}
	}
	return nil
}

// onRelease applies a voluntary writeback from an L1 writeback unit. It is
// applied inline — even when an MSHR is transacting on the line — because
// the releasing client's probe acknowledgement is ordered after the release
// on its C channel, and the MSHR's grant must see the released data.
func (c *Cache) onRelease(now int64, cl int, msg *tilelink.Msg) {
	c.ctr.voluntaryReleases.Inc()
	l := c.lookup(msg.Addr)
	if l == nil {
		panic(fmt.Sprintf("l2: Release for absent line %#x (inclusion violated)", msg.Addr))
	}
	c.permsOf(l)[cl] = msg.Shrink.To()
	if msg.Op == tilelink.OpReleaseData {
		*c.dataOf(l) = msg.Data
		l.dirty = true
		c.clearPoison(msg.Addr)
	}
	l.lastUsed = now
	c.outD[cl] = append(c.outD[cl], tilelink.Msg{Op: tilelink.OpReleaseAck, Addr: msg.Addr, Txn: msg.Txn}) //skipit:ignore hotalloc per-client outD depth is bounded by outstanding transactions; append reuses its backing after warmup
}

// sinkA ingests Acquire requests, allocating an MSHR or buffering.
func (c *Cache) sinkA(now int64, cl int) {
	for {
		msg, ok := c.ports[cl].A.Peek(now)
		if !ok {
			return
		}
		if msg.Op == tilelink.OpAcquirePerm {
			panic("l2: AcquirePerm unsupported (§3.3)")
		}
		if msg.Op != tilelink.OpAcquireBlock {
			panic(fmt.Sprintf("l2: %v on channel A", msg.Op))
		}
		if len(c.listBuffer) >= c.listBufferLimit(now) {
			c.ctr.listBufferStalls.Inc()
			return
		}
		c.ports[cl].A.Recv(now)
		c.ctr.acquires.Inc()
		c.listBuffer = append(c.listBuffer, buffered{msg: *msg, client: cl, readyAt: now + int64(c.cfg.TagLatency)}) //skipit:ignore hotalloc listBuffer is bounded by listBufferLimit (checked above); append reuses its backing after warmup
	}
}

// retryListBuffer allocates MSHRs for buffered requests in FIFO order,
// skipping entries whose line is under an active transaction or blocked
// behind an earlier buffered entry for the same line.
func (c *Cache) retryListBuffer(now int64) {
	if len(c.listBuffer) == 0 {
		return
	}
	// blocked is a linear-scan set (the ListBuffer is small and bounded);
	// its backing array persists on the Cache so the hot loop is
	// allocation-free.
	blocked := c.blockedScratch[:0]
	isBlocked := func(addr uint64) bool { //skipit:ignore hotalloc non-escaping local closure; blocked backing persists on the Cache (see comment above)
		for _, a := range blocked {
			if a == addr {
				return true
			}
		}
		return false
	}
	// Entries that stay are compacted in place by index, skipping the
	// self-copy: a buffered message carries a whole line.
	kept := 0
	for i := range c.listBuffer {
		b := &c.listBuffer[i]
		free := -1
		if b.readyAt <= now && !isBlocked(b.msg.Addr) && !c.lineBusy(b.msg.Addr) {
			if free = c.freeMSHR(now); free < 0 {
				c.ctr.mshrFullDefers.Inc()
			}
		}
		// Serialize same-line entries, whether this one stays or starts.
		blocked = append(blocked, b.msg.Addr) //skipit:ignore hotalloc blocked reuses blockedScratch whose backing persists on the Cache
		if free < 0 {
			if kept != i {
				c.listBuffer[kept] = *b
			}
			kept++
			continue
		}
		c.busy |= 1 << free
		m := &c.mshrs[free]
		*m = mshr{state: msStart, addr: b.msg.Addr, client: b.client, since: now, txn: b.msg.Txn}
		if b.msg.Op == tilelink.OpAcquireBlock {
			m.kind = txnAcquire
			m.grow = b.msg.Grow
		} else {
			m.kind = txnRootRelease
			m.clean = b.msg.Op.IsRootReleaseClean()
			if b.raced {
				m.raced = true
				m.wbData = b.msg.Data
			}
		}
	}
	c.listBuffer = c.listBuffer[:kept]
	c.blockedScratch = blocked
}

// advanceMSHRs performs the per-cycle state actions that are not driven by
// an incoming message: dispatch, memory-submit retries, and final acks.
func (c *Cache) advanceMSHRs(now int64) {
	for i := c.nextBusy(0); i >= 0; i = c.nextBusy(i + 1) {
		m := &c.mshrs[i]
		switch m.state {
		case msStart:
			if now < m.since {
				continue
			}
			if m.kind == txnAcquire {
				c.dispatchAcquire(now, m)
			} else {
				c.startRootRelease(now, m)
				c.maybeFinish(now, m)
			}
		case msEvictMemWrite, msMemWrite:
			if !m.memSubmitted {
				c.resubmitWrite(now, m)
			}
		case msMemRead:
			if !m.memSubmitted {
				c.submitMemRead(now, m)
			}
		case msFinish:
			c.maybeFinish(now, m)
		}
	}
}

// dispatchAcquire starts an Acquire, stalling in msStart when every way of
// the target set is reserved by other transactions.
func (c *Cache) dispatchAcquire(now int64, m *mshr) {
	if c.lookup(m.addr) == nil {
		set := c.index(m.addr)
		if c.pickVictim(set) < 0 {
			return // all ways under transaction; retry next cycle
		}
	}
	c.startAcquire(now, m)
}

// maybeFinish emits the RootReleaseAck for a finished RootRelease and frees
// the MSHR.
func (c *Cache) maybeFinish(now int64, m *mshr) {
	if m.state != msFinish {
		return
	}
	c.rec.Record(now, trace.RecRootReleaseAck, trace.CauseNone, m.txn, m.addr, uint64(m.client))
	c.outD[m.client] = append(c.outD[m.client], tilelink.Msg{Op: tilelink.OpRootReleaseAck, Addr: m.addr, Txn: m.txn}) //skipit:ignore hotalloc per-client outD depth is bounded by outstanding transactions; append reuses its backing after warmup
	c.release(m)
}

// resubmitWrite retries a memory write that the controller rejected.
func (c *Cache) resubmitWrite(now int64, m *mshr) {
	var addr uint64
	var l *line
	if m.state == msEvictMemWrite {
		l = c.frame(m.victimSet, m.victimWay)
		addr = c.addrOf(m.victimSet, l.tag)
	} else {
		addr = m.addr
		l = c.lookup(m.addr)
	}
	var data *tilelink.Line
	if l != nil {
		data = c.dataOf(l)
	} else if m.raced {
		// RootRelease write-through for a line evicted in flight: the
		// data lives only in the MSHR (see startRootRelease).
		data = &m.wbData
	} else {
		panic("l2: write retry for absent line")
	}
	if c.mem.Submit(now, mem.Request{Kind: mem.Write, Addr: addr, Data: *data, Tag: c.mshrIndex(m), Txn: m.txn}) {
		c.ctr.memWrites.Inc()
		m.memSubmitted = true
	}
}
