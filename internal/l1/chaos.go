package l1

import (
	"skipit/internal/tilelink"
	"skipit/internal/trace"
)

// Chaos is the fault-injection hook the data cache consults when armed. Both
// methods must be pure functions of the current cycle and the injector's
// schedule, so replays are bit-identical. A nil hook (the default) costs one
// pointer compare on the request path.
type Chaos interface {
	// ForceNack reports whether the request being processed at cycle now
	// must be nacked regardless of cache state. Forced nacks are counted
	// under their own attribution cause (nack_chaos) and are retried by
	// the LSU like any structural nack.
	ForceNack(now int64) bool
	// MSHRQuota returns the number of MSHRs usable at cycle now; negative
	// means unlimited. A squeeze below current occupancy does not cancel
	// in-flight misses, it only blocks new allocations.
	MSHRQuota(now int64) int
}

// SetChaos installs (or, with nil, removes) the fault-injection hook.
func (d *DCache) SetChaos(c Chaos) { d.chaos = c }

// FlipOutcome classifies an attempted ECC-style bit flip.
type FlipOutcome uint8

const (
	// FlipMiss: the target line is not resident; nothing to corrupt.
	FlipMiss FlipOutcome = iota
	// FlipBlocked: the line is mid-transaction (active MSHR or flush-unit
	// bookkeeping); the model only corrupts stable resident lines.
	FlipBlocked
	// FlipDirtyUnrecoverable: the line is dirty — the only copy of the
	// data in the system. A flip here cannot be healed by refetch, so it
	// is flagged and NOT applied; silently healing it would hide real
	// data loss.
	FlipDirtyUnrecoverable
	// FlipApplied: the clean line was corrupted and marked poisoned; the
	// next access detects it and recovers through the ordinary miss path.
	FlipApplied
)

func (o FlipOutcome) String() string {
	return [...]string{"miss", "blocked", "dirty-unrecoverable", "applied"}[o]
}

// InjectBitFlip models a transient ECC-scale upset on the line holding addr:
// bit (modulo the line size in bits) is inverted in the data array. Only
// clean, transaction-free lines are corrupted — a clean line is by definition
// backed by an intact copy below, so detection at the next access invalidates
// the line and the refetch restores correct data. Dirty lines hold the sole
// copy; a flip there is reported as unrecoverable and not applied.
func (d *DCache) InjectBitFlip(addr uint64, bit uint64) FlipOutcome {
	lineAddr := d.lineAddr(addr)
	m := d.lookup(lineAddr)
	if m == nil {
		return FlipMiss
	}
	if m.dirty {
		d.ctr.eccDirtyUnrec.Inc()
		return FlipDirtyUnrecoverable
	}
	if d.mshrFor(lineAddr) != nil || d.flush.ActiveOn(lineAddr) {
		return FlipBlocked
	}
	set := d.index(lineAddr)
	way := d.findWay(lineAddr, true)
	bit %= d.cfg.LineBytes * 8
	d.row(set, way)[bit/8] ^= 1 << (bit % 8)
	if d.poisoned == nil {
		d.poisoned = make(map[uint64]struct{})
	}
	d.poisoned[lineAddr] = struct{}{}
	d.ctr.eccFlips.Inc()
	return FlipApplied
}

// eccScrub is the check-on-access half of the ECC model: a request touching a
// poisoned line detects the corruption, invalidates the line (clearing dirty
// and skip — the line is clean by construction) and lets the request fall
// through to the ordinary miss path, which refetches the intact copy from the
// L2. Called only while the poison set is non-empty.
func (d *DCache) eccScrub(now int64, lineAddr uint64) {
	if _, bad := d.poisoned[lineAddr]; !bad {
		return
	}
	delete(d.poisoned, lineAddr)
	m := d.lookup(lineAddr)
	if m == nil {
		return
	}
	m.valid = false
	m.dirty = false
	m.skip = false
	d.ctr.refetchRecoveries.Inc()
	trace.Emit(d.tr, now, d.name, "ecc-scrub", lineAddr, "poisoned line invalidated; refetching")
}

// clearPoison drops the poison mark when the line's data is wholly replaced
// or the line leaves the cache.
func (d *DCache) clearPoison(lineAddr uint64) {
	if len(d.poisoned) != 0 {
		delete(d.poisoned, lineAddr)
	}
}

// PokeMeta force-writes the metadata bits of a resident line, bypassing the
// coherence protocol. Test-only: it exists so invariant-checker tests can
// seed each violation class on top of an otherwise legal state. Reports
// whether the line was resident.
func (d *DCache) PokeMeta(addr uint64, perm tilelink.Perm, dirty, skip bool) bool {
	m := d.lookup(d.lineAddr(addr))
	if m == nil {
		return false
	}
	m.perm = perm
	m.dirty = dirty
	m.skip = skip
	return true
}

func (s mState) String() string {
	return [...]string{"free", "send_acquire", "wait_grant", "victim", "install", "replay", "grant_ack"}[s]
}

// MSHRDebug is the JSON-friendly view of one MSHR, for hang reports.
type MSHRDebug struct {
	State string `json:"state"`
	Addr  uint64 `json:"addr"`
	RPQ   int    `json:"rpq"`
}

// DCacheDebug snapshots the cache's transactional state for hang reports.
type DCacheDebug struct {
	MSHRs      []MSHRDebug `json:"mshrs"`
	WBState    string      `json:"wb_state"`
	WBAddr     uint64      `json:"wb_addr"`
	ProbeState string      `json:"probe_state"`
	ProbeQueue int         `json:"probe_queue"`
	InQ        int         `json:"in_q"`
	RespQ      int         `json:"resp_q"`
}

// Debug returns the cache's transactional state snapshot.
func (d *DCache) Debug() DCacheDebug {
	dbg := DCacheDebug{
		WBState:    [...]string{"idle", "send_release", "wait_ack"}[d.wb.state],
		WBAddr:     d.wb.addr,
		ProbeState: [...]string{"idle", "inval_flushq", "respond"}[d.probe.state],
		ProbeQueue: len(d.probe.q),
		InQ:        len(d.inQ),
		RespQ:      len(d.respQ),
	}
	for i := range d.mshrs {
		m := &d.mshrs[i]
		if m.state == mFree {
			continue
		}
		dbg.MSHRs = append(dbg.MSHRs, MSHRDebug{State: m.state.String(), Addr: m.addr, RPQ: len(m.rpq)})
	}
	return dbg
}
