package core

// Chaos is the fault-injection hook the flush unit consults when armed. The
// method must be a pure function of the current cycle and the injector's
// schedule, so replays are bit-identical.
type Chaos interface {
	// FSHRQuota returns the number of FSHRs usable at cycle now; negative
	// means unlimited. A squeeze below current occupancy does not cancel
	// in-flight flushes, it only blocks new dequeues.
	FSHRQuota(now int64) int
}

// SetChaos installs (or, with nil, removes) the fault-injection hook.
func (u *FlushUnit) SetChaos(c Chaos) { u.chaos = c }

// fshrQuotaFull reports whether an armed capacity squeeze forbids allocating
// another FSHR at cycle now. Attributed to the ordinary FSHR-full stall
// counter: a squeezed unit behaves exactly like one built with fewer FSHRs.
func (u *FlushUnit) fshrQuotaFull(now int64) bool {
	if u.chaos == nil {
		return false
	}
	q := u.chaos.FSHRQuota(now)
	return q >= 0 && u.ActiveFSHRs() >= q
}

// FSHRDebug is the JSON-friendly view of one FSHR, for hang reports.
type FSHRDebug struct {
	State string `json:"state"`
	Addr  uint64 `json:"addr"`
}

// FlushDebug snapshots the flush unit's state for hang reports.
type FlushDebug struct {
	QueueLen int         `json:"queue_len"`
	Counter  int         `json:"counter"`
	FSHRs    []FSHRDebug `json:"fshrs"`
}

// Debug returns the unit's state snapshot.
func (u *FlushUnit) Debug() FlushDebug {
	dbg := FlushDebug{QueueLen: len(u.queue), Counter: u.counter}
	for i := range u.fshrs {
		f := &u.fshrs[i]
		if !f.active() {
			continue
		}
		dbg.FSHRs = append(dbg.FSHRs, FSHRDebug{State: f.state.String(), Addr: f.req.addr})
	}
	return dbg
}

// PokePreAckFSHRs flips the pre-ack mask bits set in flip, bypassing the
// FSHRs. Test-only, like PokePendingCount.
func (u *FlushUnit) PokePreAckFSHRs(flip uint64) { u.preAck ^= flip }

// PokePendingCount skews the flush counter by delta, bypassing the protocol.
// Test-only: it exists so invariant-checker tests can seed the §5.2
// counter-accounting violation.
func (u *FlushUnit) PokePendingCount(delta int) { u.counter += delta }
