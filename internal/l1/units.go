package l1

import (
	"fmt"

	"skipit/internal/tilelink"
	"skipit/internal/trace"
)

// wbUnit is the writeback unit (§3.3): it releases one evicted line at a
// time to the L2 and holds probes (wb_rdy low) while doing so. Per §5.4.2,
// wb_rdy low also blocks flush queue dequeues.
type wbUnit struct {
	state wbState
	addr  uint64
	data  tilelink.Line
	dirty bool
	perm  tilelink.Perm
	txn   uint64 // transaction id of the Release→ReleaseAck chain
}

type wbState uint8

const (
	wbIdle wbState = iota
	wbSendRelease
	wbWaitAck
)

func (w *wbUnit) idle() bool { return w.state == wbIdle }

// start snapshots an eviction. Only a dirty line's data travels with the
// Release, so only that case copies the line; a clean Release carries no
// payload.
func (w *wbUnit) start(addr uint64, data *tilelink.Line, dirty bool, perm tilelink.Perm, txn uint64) {
	if w.state != wbIdle {
		panic("l1: writeback unit double start")
	}
	*w = wbUnit{state: wbSendRelease, addr: addr, dirty: dirty, perm: perm, txn: txn}
	if dirty {
		w.data = *data
	}
}

func (d *DCache) tickWB(now int64) {
	w := &d.wb
	if w.state != wbSendRelease {
		return
	}
	shrink := tilelink.ShrinkFor(w.perm, tilelink.PermNone)
	msg := tilelink.Msg{Op: tilelink.OpRelease, Addr: w.addr, Source: d.cfg.Source, Shrink: shrink, Txn: w.txn}
	dirtyArg := uint64(0)
	if w.dirty {
		msg.Op = tilelink.OpReleaseData
		msg.Data = w.data
		dirtyArg = 1
	}
	if d.port.C.Send(now, msg) {
		d.rec.Record(now, trace.RecRelease, trace.CauseNone, w.txn, w.addr, dirtyArg)
		w.state = wbWaitAck
	}
}

// onReleaseAck completes the in-flight eviction.
func (d *DCache) onReleaseAck(now int64, msg *tilelink.Msg) {
	if d.wb.state != wbWaitAck || d.wb.addr != msg.Addr {
		panic(fmt.Sprintf("l1[%d]: stray ReleaseAck %#x", d.cfg.Source, msg.Addr))
	}
	d.rec.Record(now, trace.RecReleaseAck, trace.CauseNone, d.wb.txn, d.wb.addr, 0)
	d.wb = wbUnit{}
}

// probeUnit handles coherence probes from the L2 (§3.3). Exactly one probe
// is serviced at a time; arrival lowers probe_rdy, which blocks flush queue
// dequeues until the probe has invalidated conflicting flush queue entries
// and completed (§5.4.1).
type probeUnit struct {
	q     []tilelink.Msg
	state pState
	cur   tilelink.Msg
	resp  tilelink.Msg
}

type pState uint8

const (
	pIdle pState = iota
	pInvalFlushQ
	pRespond
)

func (p *probeUnit) busy() bool { return p.state != pIdle || len(p.q) > 0 }

// probeRdy mirrors §5.4.1: low from the moment a probe arrives until the
// probe unit finishes with it.
func (d *DCache) probeRdy() bool { return !d.probe.busy() }

func (d *DCache) enqueueProbe(msg *tilelink.Msg) {
	d.probe.q = append(d.probe.q, *msg) //skipit:ignore hotalloc probe queue depth is bounded by outstanding L2 probes (one per MSHR); append reuses its backing
}

func (d *DCache) tickProbe(now int64) {
	p := &d.probe
	switch p.state {
	case pIdle:
		if len(p.q) == 0 {
			return
		}
		// §5.4.1/§5.4.2: the probe may not start while an FSHR is
		// mutating line state (flush_rdy low) or the WBU is mid-release
		// (wb_rdy low). Both windows are bounded, so no deadlock: an
		// FSHR waiting in root_release_ack keeps flush_rdy high, and
		// its L2-side transaction is what generates further probes.
		if !d.flush.FlushRdy() || !d.wb.idle() {
			return
		}
		// An MSHR mid-install/replay on the probed line is the §3.3
		// mshr_rdy window; hold the probe for those bounded states.
		if m := d.mshrFor(p.q[0].Addr); m != nil &&
			(m.state == mVictim || m.state == mInstall || m.state == mReplay) {
			return
		}
		p.cur = p.q[0]
		copy(p.q, p.q[1:])
		p.q = p.q[:len(p.q)-1]
		// First cycle: invalidate conflicting flush queue entries via
		// the probe_invalidate input (§5.4.1).
		d.flush.ProbeInvalidate(p.cur.Addr, p.cur.Cap)
		p.state = pInvalFlushQ

	case pInvalFlushQ:
		// Second cycle: downgrade the line and build the response.
		p.resp = d.buildProbeAck(now, p.cur)
		p.state = pRespond
		d.tickProbe2(now)

	case pRespond:
		d.tickProbe2(now)
	}
}

func (d *DCache) tickProbe2(now int64) {
	p := &d.probe
	if p.state != pRespond {
		return
	}
	if d.port.C.Send(now, p.resp) {
		d.ctr.probesServed.Inc()
		d.rec.Record(now, trace.RecProbeAck, trace.CauseNone, p.resp.Txn, p.resp.Addr, 0)
		p.state = pIdle
		p.cur = tilelink.Msg{}
		p.resp = tilelink.Msg{}
	}
}

// buildProbeAck applies the permission downgrade a probe demands and
// constructs the acknowledgement, carrying dirty data when the downgrade
// surrenders it. Surrendering dirty data to a toB probe leaves our copy
// clean while making L2 dirty, so the skip bit is cleared to preserve the
// §6.2 invariant.
func (d *DCache) buildProbeAck(now int64, probe tilelink.Msg) tilelink.Msg {
	addr := probe.Addr
	meta := d.lookup(addr)
	if meta == nil {
		return tilelink.Msg{
			Op:     tilelink.OpProbeAck,
			Addr:   addr,
			Source: d.cfg.Source,
			Shrink: tilelink.ShrinkNtoN,
			Txn:    probe.Txn,
		}
	}
	from := meta.perm
	to := probe.Cap.Perm()
	if to >= from {
		// Report-only: we already hold no more than the cap.
		return tilelink.Msg{
			Op:     tilelink.OpProbeAck,
			Addr:   addr,
			Source: d.cfg.Source,
			Shrink: tilelink.ShrinkFor(from, from),
			Txn:    probe.Txn,
		}
	}
	shrink := tilelink.ShrinkFor(from, to)
	msg := tilelink.Msg{Op: tilelink.OpProbeAck, Addr: addr, Source: d.cfg.Source, Shrink: shrink, Txn: probe.Txn}
	if meta.dirty {
		way := d.findWay(addr, true)
		msg.Op = tilelink.OpProbeAckData
		msg.Data = *d.row(d.index(addr), way)
		meta.dirty = false
	}
	switch probe.Cap {
	case tilelink.CapToN:
		meta.valid = false
		meta.skip = false
		d.clearPoison(d.lineAddr(addr))
	case tilelink.CapToB:
		meta.perm = tilelink.PermBranch
		if msg.Op == tilelink.OpProbeAckData {
			// L2 is now the dirty holder; our clean copy is not
			// persisted (§6.2 case 3 boundary).
			meta.skip = false
			// Skip-audit: the surrendered data clears the skip bit, so a
			// future CBO on this line will issue again.
			d.rec.Record(now, trace.RecSkipAudit, trace.CauseDataSurrendered, probe.Txn, addr, 0)
		}
	}
	return msg
}
