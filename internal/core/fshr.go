package core

import (
	"fmt"

	"skipit/internal/tilelink"
	"skipit/internal/trace"
)

// FSHRState enumerates the flush status holding register states of Fig. 7.
type FSHRState uint8

const (
	FSHRInvalid FSHRState = iota
	FSHRMetaWrite
	FSHRFillBuffer
	FSHRRootReleaseData
	FSHRRootRelease
	FSHRRootReleaseAck
)

func (s FSHRState) String() string {
	switch s {
	case FSHRInvalid:
		return "invalid"
	case FSHRMetaWrite:
		return "meta_write"
	case FSHRFillBuffer:
		return "fill_buffer"
	case FSHRRootReleaseData:
		return "root_release_data"
	case FSHRRootRelease:
		return "root_release"
	case FSHRRootReleaseAck:
		return "root_release_ack"
	}
	return fmt.Sprintf("FSHRState(%d)", uint8(s))
}

// fshr asynchronously executes one dequeued CBO.X request (§5.2). The
// execution plan — which states the register passes through — is fixed at
// allocation time from the request's snapshot metadata:
//
//	hit+dirty:        meta_write -> fill_buffer -> root_release_data
//	hit+clean flush:  meta_write -> root_release
//	hit+clean clean:  root_release
//	miss:             root_release
//
// and every plan ends in root_release_ack. A RootRelease is sent even on a
// miss because the line may still need to be written back from other cores
// or from higher levels of the hierarchy (§5.2).
type fshr struct {
	state FSHRState
	req   flushReq
	// allocAt is the cycle the request was dequeued into this FSHR; the
	// flush unit observes completion latency against it at the ack.
	allocAt int64

	// buffer is the per-FSHR data buffer (§5.2) holding the dirty line
	// being written back.
	buffer       tilelink.Line
	bufferFilled bool
	// fillCycles counts remaining data-array read cycles; one with the
	// widened array, lineBytes/8 without (§5.2).
	fillCycles int
}

// flushReq is one flush queue entry (§5.2): the line address plus the
// bookkeeping bits snapshotted from the metadata array at enqueue time.
type flushReq struct {
	addr    uint64 // line-aligned
	isHit   bool
	isDirty bool
	isClean bool // CBO.CLEAN (vs CBO.FLUSH)
	// txn is the transaction id assigned at enqueue; the whole CBO
	// lifecycle — queue entry, FSHR, RootRelease, ack — shares it.
	txn uint64
}

// allocate loads a dequeued request into a free FSHR and sets up the
// execution plan (the invalid-state action of Fig. 7).
func (f *fshr) allocate(req flushReq, now int64) {
	if f.state != FSHRInvalid {
		panic("core: allocating busy FSHR")
	}
	f.req = req
	f.allocAt = now
	f.bufferFilled = false
	switch {
	case req.isHit && req.isDirty:
		f.state = FSHRMetaWrite
	case req.isHit && !req.isClean:
		// Clean line, CBO.FLUSH: permissions must still be invalidated.
		f.state = FSHRMetaWrite
	default:
		// Hit on a clean line with CBO.CLEAN, or a miss: metadata is
		// unchanged; go straight to the data-less release.
		f.state = FSHRRootRelease
	}
}

// busyPreAck reports whether the FSHR holds a request and has not yet reached
// root_release_ack: whether it has work every cycle. The flush unit keeps
// this per FSHR in its preAck mask; Tick steps only such FSHRs, and the
// unit's flush_rdy output is the NOR of this across all FSHRs (§5.4.1).
func (f *fshr) busyPreAck() bool {
	return f.state != FSHRInvalid && f.state != FSHRRootReleaseAck
}

// active reports whether the FSHR holds a request in any state.
func (f *fshr) active() bool { return f.state != FSHRInvalid }

// stepFSHR advances FSHR i's state machine by one cycle.
func (u *FlushUnit) stepFSHR(now int64, i int) {
	f := &u.fshrs[i]
	switch f.state {
	case FSHRInvalid, FSHRRootReleaseAck:
		// Nothing to do; root_release_ack exits via OnRootReleaseAck.

	case FSHRMetaWrite:
		// §5.2 state 2: invalidate for a flush, clear the dirty bit for
		// a clean. Per §6.1 the skip bit is left alone: while this
		// writeback is in flight a stale set bit lets redundant CBO.X
		// requests drop immediately, which is safe because this FSHR
		// already carries the line's dirty data and the flush counter
		// holds fences until the acknowledgement arrives.
		if f.req.isClean {
			u.ports.MetaClearDirty(f.req.addr)
		} else {
			u.ports.MetaInvalidate(f.req.addr)
		}
		// A request for the same line can still be queued behind this
		// one (same-kind with coalescing off, or cross-kind without
		// CoalesceCrossKind), holding a snapshot from before this write:
		// update it as a probe would, or it would later read the data of
		// a line this FSHR invalidated.
		u.downgradeQueued(f.req.addr, !f.req.isClean)
		if f.req.isDirty {
			f.fillCycles = 1
			if !u.cfg.WideDataArray {
				f.fillCycles = int(u.cfg.LineBytes / 8)
			}
			f.state = FSHRFillBuffer
		} else {
			f.state = FSHRRootRelease
		}

	case FSHRFillBuffer:
		// §5.2 state 3: the widened data array serves the whole line in
		// one cycle; the stock array needs one word per cycle.
		f.fillCycles--
		if f.fillCycles > 0 {
			return
		}
		f.buffer = u.ports.DataRead(f.req.addr)
		f.bufferFilled = true
		f.state = FSHRRootReleaseData

	case FSHRRootReleaseData:
		// §5.2 state 4: send RootRelease with data. The TL-C link
		// models the four beats a 64 B line takes on the 16 B bus.
		m := tilelink.Msg{
			Op:     rootReleaseOp(f.req.isClean, true),
			Addr:   f.req.addr,
			Source: u.cfg.Source,
			Dirty:  true,
			Data:   f.buffer,
			Txn:    f.req.txn,
		}
		if u.ports.SendRootRelease(now, m) {
			u.ctr.rootReleases.Inc()
			u.ctr.dataWritebacks.Inc()
			u.rec.Record(now, trace.RecRootRelease, trace.CboKind(f.req.isClean), f.req.txn, f.req.addr, uint64(u.cfg.Source))
			// Skip-audit: the line was dirty in L1, so this CBO issues a
			// full data writeback.
			u.rec.Record(now, trace.RecSkipAudit, trace.CauseDirtyLine, f.req.txn, f.req.addr, 1)
			f.state = FSHRRootReleaseAck
			u.preAck &^= 1 << i
		} else {
			u.ctr.stallLinkBusy.Inc()
		}

	case FSHRRootRelease:
		// §5.2 state 5: send RootRelease without data in one beat.
		m := tilelink.Msg{
			Op:     rootReleaseOp(f.req.isClean, false),
			Addr:   f.req.addr,
			Source: u.cfg.Source,
			Txn:    f.req.txn,
		}
		if u.ports.SendRootRelease(now, m) {
			u.ctr.rootReleases.Inc()
			u.rec.Record(now, trace.RecRootRelease, trace.CboKind(f.req.isClean), f.req.txn, f.req.addr, uint64(u.cfg.Source))
			// Skip-audit: no data travels from this L1 — either the line
			// was clean here (the LLC decides whether anything is dirty
			// below us) or a flush forced a data-less release.
			cause := trace.CauseCleanLine
			if !f.req.isClean {
				cause = trace.CauseFlushForced
			}
			u.rec.Record(now, trace.RecSkipAudit, cause, f.req.txn, f.req.addr, 0)
			f.state = FSHRRootReleaseAck
			u.preAck &^= 1 << i
		} else {
			u.ctr.stallLinkBusy.Inc()
		}
	}
}

// rootReleaseOp maps the request kind to the §5.1 message encoding.
func rootReleaseOp(clean, withData bool) tilelink.Opcode {
	switch {
	case clean && withData:
		return tilelink.OpRootReleaseCleanData
	case clean:
		return tilelink.OpRootReleaseClean
	case withData:
		return tilelink.OpRootReleaseFlushData
	}
	return tilelink.OpRootReleaseFlush
}
