package l1

import (
	"fmt"

	"skipit/internal/tilelink"
	"skipit/internal/trace"
)

// mState sequences an L1 MSHR: acquire the line from L2, evict a victim if
// the set is full, install data and metadata, replay the buffered requests
// in arrival order, and acknowledge the grant (§3.3).
type mState uint8

const (
	mFree mState = iota
	mSendAcquire
	mWaitGrant
	mVictim
	mInstall
	mReplay
	mGrantAck
)

// mshr handles one outstanding line miss. The request that allocated it is
// the primary request; later requests to the same line piggy-back through
// the replay queue as secondary requests when their required permissions do
// not exceed the primary's (§3.3 — the BOOM data cache cannot upgrade an
// in-flight Acquire because AcquirePerm is unsupported).
type mshr struct {
	state mState
	addr  uint64 // line-aligned
	grow  tilelink.Grow
	rpq   []Req
	txn   uint64 // transaction id of the miss's Acquire→Grant→GrantAck chain

	// Grant payload, held until install.
	grantData  tilelink.Line
	grantCap   tilelink.Cap
	grantDirty bool // GrantDataDirty: leave the skip bit unset (§6.1)

	way int
}

// perm returns the permission level the MSHR is acquiring.
func (m *mshr) perm() tilelink.Perm { return m.grow.To() }

// canAcceptSecondary applies the §3.3 replay-queue rule: a secondary request
// may piggy-back only if it needs no more permission than the primary
// acquired, and only while the MSHR is still waiting (replay order would be
// violated afterwards).
func (m *mshr) canAcceptSecondary(req Req, rpqDepth int) bool {
	if m.state != mSendAcquire && m.state != mWaitGrant {
		return false
	}
	if len(m.rpq) >= rpqDepth {
		return false
	}
	need := tilelink.PermBranch
	if req.Kind == Store || req.Kind.IsAmo() {
		need = tilelink.PermTrunk
	}
	return need <= m.perm()
}

// mshrFor returns the active MSHR for addr's line, if any.
func (d *DCache) mshrFor(addr uint64) *mshr {
	addr = d.lineAddr(addr)
	for i := range d.mshrs {
		m := &d.mshrs[i]
		if m.state != mFree && m.addr == addr {
			return m
		}
	}
	return nil
}

// freeMSHR returns an unused MSHR, honoring an armed chaos capacity squeeze:
// a quota below the configured count makes the cache behave as if built with
// fewer MSHRs for the window, without cancelling in-flight misses.
func (d *DCache) freeMSHR(now int64) *mshr {
	limit := len(d.mshrs)
	if d.chaos != nil {
		if q := d.chaos.MSHRQuota(now); q >= 0 && q < limit {
			limit = q
		}
	}
	inUse := 0
	var free *mshr
	for i := range d.mshrs {
		if d.mshrs[i].state == mFree {
			if free == nil {
				free = &d.mshrs[i]
			}
		} else {
			inUse++
		}
	}
	if inUse >= limit {
		return nil
	}
	return free
}

// allocMSHR sets up a new miss. The growth parameter depends on the request
// kind and whether a read-only copy is already held (store upgrade).
//
//skipit:hotpath
func (d *DCache) allocMSHR(now int64, m *mshr, req Req) {
	addr := d.lineAddr(req.Addr)
	grow := tilelink.GrowNtoB
	code := trace.RecLoadMiss
	if req.Kind == Store || req.Kind.IsAmo() {
		code = trace.RecStoreMiss
		grow = tilelink.GrowNtoT
		if meta := d.lookup(addr); meta != nil && meta.perm == tilelink.PermBranch {
			grow = tilelink.GrowBtoT
		}
	}
	// Reuse the replay queue's backing array across the MSHR's lifetimes;
	// the steady-state cycle loop must not allocate.
	rpq := append(m.rpq[:0], req) //skipit:ignore hotalloc appends one Req to a zero-length reslice of the MSHR's reused backing array; grows once per MSHR lifetime
	*m = mshr{state: mSendAcquire, addr: addr, grow: grow, rpq: rpq, way: -1, txn: d.cfg.Txns.Next()}
	d.rec.Record(now, code, trace.CauseNone, m.txn, addr, 0)
}

// release frees the MSHR, keeping the replay queue's backing array for reuse.
func (m *mshr) release() {
	rpq := m.rpq[:0]
	*m = mshr{rpq: rpq}
}

// tickMSHRs advances every MSHR one cycle.
func (d *DCache) tickMSHRs(now int64) {
	for i := range d.mshrs {
		d.tickMSHR(now, &d.mshrs[i])
	}
}

func (d *DCache) tickMSHR(now int64, m *mshr) {
	switch m.state {
	case mFree, mWaitGrant:
		// Waiting on the LSU or on TL-D; nothing to do.

	case mSendAcquire:
		if d.port.A.Send(now, tilelink.Msg{
			Op:     tilelink.OpAcquireBlock,
			Addr:   m.addr,
			Source: d.cfg.Source,
			Grow:   m.grow,
			Txn:    m.txn,
		}) {
			if d.tr != nil {
				trace.EmitTxn(d.tr, now, d.name, "acquire", m.txn, m.addr, m.grow.String())
			}
			d.rec.Record(now, trace.RecAcquire, trace.CauseNone, m.txn, m.addr, 0)
			m.state = mWaitGrant
		}

	case mVictim:
		d.tickVictim(now, m)

	case mInstall:
		set := d.index(m.addr)
		meta := &d.meta[set][m.way]
		*meta = wayMeta{
			valid:    true,
			tag:      d.tagOf(m.addr),
			perm:     m.grantCap.Perm(),
			dirty:    false,
			skip:     !m.grantDirty, // GrantData sets, GrantDataDirty unsets (§6.1)
			lastUsed: now,
		}
		*d.row(set, m.way) = m.grantData
		d.clearPoison(m.addr)
		m.state = mReplay

	case mReplay:
		// Drain one replay per cycle, in arrival order (§3.3).
		if len(m.rpq) == 0 {
			m.state = mGrantAck
			return
		}
		req := m.rpq[0]
		copy(m.rpq, m.rpq[1:])
		m.rpq = m.rpq[:len(m.rpq)-1]
		d.replay(now, m, req)

	case mGrantAck:
		if d.port.E.Send(now, tilelink.Msg{Op: tilelink.OpGrantAck, Addr: m.addr, Source: d.cfg.Source, Txn: m.txn}) {
			if d.tr != nil {
				trace.EmitTxn(d.tr, now, d.name, "grant-ack", m.txn, m.addr, "")
			}
			d.rec.Record(now, trace.RecGrantAck, trace.CauseNone, m.txn, m.addr, 0)
			m.release()
		}
	}
}

// onGrant accepts the TL-D grant for an MSHR and begins victim selection.
func (d *DCache) onGrant(now int64, msg *tilelink.Msg) {
	m := d.mshrFor(msg.Addr)
	if m == nil || m.state != mWaitGrant {
		panic(fmt.Sprintf("l1[%d]: stray grant %v", d.cfg.Source, msg))
	}
	m.grantData = msg.Data
	m.grantCap = msg.Cap
	m.grantDirty = msg.Op == tilelink.OpGrantDataDirty
	if d.tr != nil {
		trace.EmitTxn(d.tr, now, d.name, "grant", m.txn, m.addr,
			fmt.Sprintf("%v cap=%v (skip=%v)", msg.Op, msg.Cap, !m.grantDirty)) //skipit:ignore hotalloc trace formatting runs only with a tracer attached; untraced runs never reach it
	}
	d.rec.Record(now, trace.RecGrant, trace.CauseNone, m.txn, m.addr, 0)
	if m.grantDirty {
		// Skip-audit: the line arrived dirty-in-L2, so the skip bit stays
		// unset and a future CBO on this line cannot be elided (§6).
		d.rec.Record(now, trace.RecSkipAudit, trace.CauseGrantDataDirty, m.txn, m.addr, 0)
	}
	m.state = mVictim
	d.tickVictim(now, m)
}

// tickVictim finds a way for the granted line, evicting as needed. Victim
// selection honors the §5.4.2 interlocks: it stalls while flush_rdy is low,
// never chooses a line the flush unit holds a request for or the probe unit
// is serving, and uses the writeback unit (one eviction at a time) for the
// release.
func (d *DCache) tickVictim(now int64, m *mshr) {
	set := d.index(m.addr)

	// A store upgrade may find its line still resident (probe races can
	// also have removed it); reuse the way in place.
	if w := d.findWay(m.addr, true); w >= 0 {
		m.way = w
		m.state = mInstall
		return
	}

	// Prefer an invalid way: no eviction needed.
	for w := range d.meta[set] {
		if !d.meta[set][w].valid && !d.wayReserved(set, w, m) {
			m.way = w
			m.state = mInstall
			return
		}
	}

	// Must evict: §5.4.2 blocks victim selection while any FSHR is
	// pre-ack, and the WBU handles one release at a time.
	if !d.flush.FlushRdy() || !d.wb.idle() {
		return
	}
	best, bestUsed := -1, int64(1<<62)
	for w := range d.meta[set] {
		meta := &d.meta[set][w]
		victimAddr := d.addrOf(set, meta.tag)
		if d.flush.VictimBlocked(victimAddr) || d.wayReserved(set, w, m) {
			continue
		}
		if d.mshrFor(victimAddr) != nil {
			continue
		}
		// A line the probe unit has accepted is answered from the
		// metadata it finds next cycle: evicting it now would ack the
		// probe NtoN without data while this Release is still in
		// flight, and the L2 would drop the line under it.
		if d.probe.state != pIdle && d.lineAddr(d.probe.cur.Addr) == victimAddr {
			continue
		}
		if meta.lastUsed < bestUsed {
			best, bestUsed = w, meta.lastUsed
		}
	}
	if best < 0 {
		return // retry next cycle
	}
	meta := &d.meta[set][best]
	victimAddr := d.addrOf(set, meta.tag)
	// §5.4.2: the writeback unit invalidates flush queue entries for the
	// line it evicts.
	d.flush.EvictInvalidate(victimAddr)
	d.clearPoison(victimAddr)
	// The eviction's Release→ReleaseAck chain is its own transaction,
	// distinct from the Acquire that triggered it.
	wbTxn := d.cfg.Txns.Next()
	d.wb.start(victimAddr, d.row(set, best), meta.dirty, meta.perm, wbTxn)
	d.ctr.writebacks.Inc()
	d.rec.Record(now, trace.RecEvict, trace.CauseNone, wbTxn, victimAddr, 0)
	if d.tr != nil {
		trace.EmitTxn(d.tr, now, d.name, "evict", wbTxn, victimAddr,
			fmt.Sprintf("dirty=%v for refill of %#x", meta.dirty, m.addr)) //skipit:ignore hotalloc trace formatting runs only with a tracer attached; untraced runs never reach it
	}
	meta.valid = false
	meta.dirty = false
	meta.skip = false
	m.way = best
	m.state = mInstall
}

// wayReserved reports whether another MSHR has claimed the way for its own
// install.
func (d *DCache) wayReserved(set, way int, self *mshr) bool {
	for i := range d.mshrs {
		m := &d.mshrs[i]
		if m == self || m.state == mFree {
			continue
		}
		if m.way == way && d.index(m.addr) == set {
			return true
		}
	}
	return false
}

// replay re-executes a buffered request against the freshly installed line.
func (d *DCache) replay(now int64, m *mshr, req Req) {
	set := d.index(m.addr)
	meta := &d.meta[set][m.way]
	switch req.Kind {
	case Load:
		v := d.readWord(set, m.way, req.Addr)
		d.respond(now+1, Resp{ID: req.ID, Data: v})
	case Store:
		d.writeWord(set, m.way, req.Addr, req.Data)
		meta.dirty = true
		// The store was acknowledged to the LSU at acceptance (§3.3:
		// requests in MSHRs are considered complete); no response now.
	case AmoAdd, AmoSwap:
		old := d.amoApply(set, m.way, req)
		meta.dirty = true
		d.respond(now+1, Resp{ID: req.ID, Data: old})
	default:
		panic("l1: CBO request in an MSHR replay queue")
	}
	meta.lastUsed = now
}
