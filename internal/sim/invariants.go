package sim

import (
	"fmt"

	"skipit/internal/tilelink"
)

// CheckInvariants validates the coherence and Skip It invariants across the
// whole hierarchy. Tests call it every cycle during stress runs; all
// properties are designed to hold at cycle granularity, not just at
// quiescence, because updates are ordered to stay on the safe side of each
// invariant during transients.
func (s *System) CheckInvariants() error {
	for i, d := range s.L1s {
		for _, ln := range d.Lines() {
			l2state := s.L2.LineState(ln.Addr)

			// Inclusion (§3.4): every valid L1 line is present in L2.
			if !l2state.Present {
				return fmt.Errorf("inclusion: l1[%d] holds %#x absent from L2", i, ln.Addr)
			}

			// Directory conservatism: a client never holds more
			// permission than the directory granted it. (The reverse
			// can transiently hold: an FSHR invalidates the L1 copy
			// before L2 processes the RootRelease, §5.5.)
			if ln.Perm > l2state.Perms[i] {
				return fmt.Errorf("directory: l1[%d] holds %v on %#x but directory says %v",
					i, ln.Perm, ln.Addr, l2state.Perms[i])
			}

			// Dirty data requires write permission.
			if ln.Dirty && ln.Perm != tilelink.PermTrunk {
				return fmt.Errorf("l1[%d]: dirty line %#x without trunk permission", i, ln.Addr)
			}

			// Skip It (§6.2): a valid skip bit — line valid, dirty
			// bit unset, skip set — implies the line is not dirty
			// in L2. The one sanctioned exception: a CBO.CLEAN for
			// the line is still in flight (§6.1 leaves the bit
			// untouched during execution); the in-flight request
			// carries the dirty data and holds fences, so dropping
			// redundant writebacks against the stale bit is safe.
			if ln.Skip && !ln.Dirty && l2state.Dirty && !d.FlushUnit().ActiveOn(ln.Addr) {
				return fmt.Errorf("skip-bit: l1[%d] line %#x skip=1 clean, but L2 dirty", i, ln.Addr)
			}
		}
	}

	// Single-writer (MESI): per directory, a trunk owner excludes all
	// other holders; verified over every line any L1 holds.
	seen := map[uint64]bool{}
	for _, d := range s.L1s {
		for _, ln := range d.Lines() {
			if seen[ln.Addr] {
				continue
			}
			seen[ln.Addr] = true
			st := s.L2.LineState(ln.Addr)
			if !st.Present {
				continue
			}
			trunks, holders := 0, 0
			for _, p := range st.Perms {
				if p == tilelink.PermTrunk {
					trunks++
				}
				if p != tilelink.PermNone {
					holders++
				}
			}
			if trunks > 1 || (trunks == 1 && holders > 1) {
				return fmt.Errorf("single-writer: line %#x directory %v", ln.Addr, st.Perms)
			}
		}
	}

	// Flush counter accounting (§5.2): pending count equals queued plus
	// FSHR-resident requests.
	for i, d := range s.L1s {
		u := d.FlushUnit()
		if u.PendingCount() != u.QueueLen()+u.ActiveFSHRs() {
			return fmt.Errorf("flush counter: l1[%d] counter=%d queue=%d fshrs=%d",
				i, u.PendingCount(), u.QueueLen(), u.ActiveFSHRs())
		}
	}

	// LSU accounting: the waiting-load count that gates the core's issue
	// walk equals the loads actually waiting in its ROB.
	for i, c := range s.Cores {
		if got, want := c.WaitingLoads(), c.CountWaitingLoads(); got != want {
			return fmt.Errorf("lsu accounting: core[%d] waiting-load count=%d, rob holds %d", i, got, want)
		}
	}

	// L1 MSHR accounting: the active-MSHR count that gates every walk over
	// an L1's MSHRs equals the MSHRs actually holding a miss.
	for i, d := range s.L1s {
		if got, want := d.ActiveMSHRs(), d.CountActiveMSHRs(); got != want {
			return fmt.Errorf("l1 mshr accounting: l1[%d] active-MSHR count=%d, mshr states give %d", i, got, want)
		}
	}

	// L2 MSHR accounting: the busy mask that gates every walk over the
	// L2's MSHRs has a bit set exactly for each MSHR holding a transaction.
	if got, want := s.L2.BusyMSHRs(), s.L2.CountBusyMSHRs(); got != want {
		return fmt.Errorf("l2 mshr accounting: busy mask=%#x, mshr states give %#x", got, want)
	}
	return nil
}

// StepChecked advances one cycle and validates invariants, for stress tests.
func (s *System) StepChecked() error {
	s.Step()
	return s.CheckInvariants()
}
