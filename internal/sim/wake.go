package sim

import "skipit/internal/tilelink"

// This file holds the per-part wake cycles that let Step tick only the
// hardware that can act. The SoC splits into N+1 parts along the TileLink
// ports:
//
//   - tile i is core i, L1 i with its flush unit, and port i's inbound B and
//     D channels; on a bare system, attached client i and the same two
//     channels;
//   - the hub is the L2, DRAM, and every port's inbound A, C and E channels.
//
// Links are the only way one part changes another: the core drives only its
// own L1, the L2 only DRAM, and a message sent at cycle t is never
// receivable before t+1. So a part's tick is a no-op until the earliest of
// its components' NextEvent reports and its inbound deliveries, and the
// System caches that cycle as the part's wake:
//
//   - after a part ticks, its wake is refreshed from its components'
//     NextEvent(now) (tileNext, hubNext);
//   - otherwise the wake only falls: every Send on an inbound channel
//     lowers it to the message's arrival (tilelink.Link.SetWake);
//   - every part ticks, and every wake is refreshed, on a clamp cycle (a
//     sampler boundary, the watchdog's trip cycle, a caller's FastForward
//     limit) and on the first step after state changed outside Step
//     (SetProgram, Crash, a chaos bit flip through WakeAll, Attach,
//     SetFastForward), so no lazily charged counter or outside change is
//     observed stale.
//
// Step ticks the due parts in the usual order (DRAM, L2, L1s ascending,
// cores ascending, clients), so transaction ids and recorded events keep
// their sequence, and FastForward jumps to the smallest cached wake.

// tileNext is tile i's wake after it ticked at cycle last: the earliest
// NextEvent of its components and inbound channels. Busiest first, so the
// fold usually stops at the core.
//
//skipit:hotpath
func (s *System) tileNext(i int, last int64) int64 {
	next := tilelink.NoEvent
	if i < len(s.Cores) {
		next = foldNext(last, next, s.Cores[i])
		next = foldNext(last, next, s.L1s[i])
	} else if i < len(s.clients) {
		next = foldNext(last, next, s.clients[i])
	}
	p := s.ports[i]
	next = foldNext(last, next, p.D)
	return foldNext(last, next, p.B)
}

// hubNext is the hub's wake after it ticked at cycle last: the earliest
// NextEvent of the L2, DRAM and every port's inbound A, C and E channels.
//
//skipit:hotpath
func (s *System) hubNext(last int64) int64 {
	next := foldNext(last, tilelink.NoEvent, s.L2)
	next = foldNext(last, next, s.Mem)
	for _, p := range s.ports {
		next = foldNext(last, next, p.A)
		next = foldNext(last, next, p.C)
		next = foldNext(last, next, p.E)
	}
	return next
}

// nextWake is the earliest cached wake over all parts: the next cycle at
// which anything in the SoC can act.
//
//skipit:hotpath
func (s *System) nextWake() int64 {
	next := s.hubWake
	for _, w := range s.tileWake {
		if w < next {
			next = w
		}
	}
	return next
}

// clampCycle reports whether cycle now is one of the System's own clamp
// cycles, on which every part ticks: a sampler boundary, or the watchdog's
// trip cycle (StepGuarded trips after ticking the first cycle c with
// c+1-wdLastChange >= wdLimit). FastForward marks a caller's limits.
//
//skipit:hotpath
func (s *System) clampCycle(now int64) bool {
	if s.sampler != nil && now%s.sampler.Interval() == 0 {
		return true
	}
	return s.wdLimit > 0 && now >= s.wdLastChange+s.wdLimit-1
}

// WakeAll makes the next Step tick every part and refresh every wake. A
// caller that changes a part's state outside Step (a chaos bit flip, say)
// calls it, so no part sleeps through the change.
func (s *System) WakeAll() { s.wakeAll = true }

// TileTicks returns the number of tile tick calls so far: one per tile
// per ticked cycle on which the tile's wake had come.
func (s *System) TileTicks() uint64 { return s.tileTicks }

// HubTicks returns the number of hub tick calls so far.
func (s *System) HubTicks() uint64 { return s.hubTicks }
