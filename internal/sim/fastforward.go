package sim

import "skipit/internal/tilelink"

// This file implements the deterministic next-event fast-forward clock.
//
// Every component exposes NextEvent(last) — the earliest cycle strictly
// after `last` (the most recently ticked cycle) at which it could change
// state without new external input. The contract is conservative: a
// component that might act at cycle t must report a value <= t, and a
// component that acts (or increments a per-cycle counter) every cycle while
// in its current state reports last+1. Components that are only waiting on
// a TileLink delivery report no event of their own; the link's queued
// readyAt covers the wake-up.
//
// When the minimum over all components lies strictly beyond the next cycle
// to be ticked, every cycle in between is provably a no-op: ticking them
// would change no architectural state, no metric, and no trace. FastForward
// advances the clock over that window in O(1) instead of ticking through
// it, clamped so that no armed observation point is skipped:
//
//   - the sampler's next interval boundary (it must sample there),
//   - the watchdog's trip cycle (the hang must be reported at the same
//     cycle, with the same window, as under single-stepping),
//   - any caller-provided limit (run deadlines, the chaos runner's next
//     scheduled fault cycle).
//
// Because only no-op cycles are skipped, cycle-accurate results — cycle
// counts, every counter, every sampled series, chaos verdicts — are
// byte-identical with fast-forwarding on or off.

// SetFastForward enables or disables next-event fast-forwarding. It is on
// by default; turning it off forces single-stepping through idle windows
// (the -fast-forward=off escape hatch for A/B validation).
func (s *System) SetFastForward(on bool) { s.fastForward = on }

// FastForwardEnabled reports whether fast-forwarding is active.
func (s *System) FastForwardEnabled() bool { return s.fastForward }

// SkippedCycles returns the total number of cycles the fast-forward clock
// has skipped.
func (s *System) SkippedCycles() uint64 { return s.ctrSkipped.Value() }

// nextEventCycle folds every component's NextEvent into the earliest cycle
// anything in the SoC can act. last is the most recently ticked cycle.
// Components are queried busiest-first (cores, or on a bare system its
// clients) and the fold (fold.go) bails out as soon as the floor (last+1,
// nothing skippable) is reached, so on cycles with no idle window the scan
// usually stops at the first requester.
//
//skipit:hotpath
func (s *System) nextEventCycle(last int64) int64 {
	next := foldNextAll(last, tilelink.NoEvent, s.Cores)
	next = foldNextAll(last, next, s.clients)
	next = foldNextAll(last, next, s.L1s)
	next = foldNext(last, next, s.L2)
	next = foldNextAll(last, next, s.ports)
	next = foldNext(last, next, s.Mem)
	return next
}

// FastForward advances the clock over a provably idle window, if one exists.
// It must be called between Steps (the components were last ticked at
// Now()-1). The clock lands on the earliest of: the next component event,
// the sampler's next interval boundary, the watchdog's trip cycle, and any
// caller-provided limits. Returns the number of cycles skipped (0 when the
// next cycle is not skippable or fast-forwarding is off).
//
//skipit:hotpath
func (s *System) FastForward(limits ...int64) int64 {
	if !s.fastForward {
		return 0
	}
	next := s.nextEventCycle(s.now - 1)
	if next <= s.now {
		// Something can act next cycle; the clamps below only ever lower
		// next, so bail before computing them.
		return 0
	}
	if s.sampler != nil {
		// The sampler fires whenever a ticked cycle is a multiple of its
		// interval; land exactly on the next boundary.
		iv := s.sampler.Interval()
		b := s.now
		if r := b % iv; r != 0 {
			b += iv - r
		}
		if b < next {
			next = b
		}
	}
	if s.hookInterval > 0 {
		// The progress hook fires whenever a ticked cycle is a multiple of
		// its interval; land exactly on the next boundary, like the sampler.
		iv := s.hookInterval
		b := s.now
		if r := b % iv; r != 0 {
			b += iv - r
		}
		if b < next {
			next = b
		}
	}
	if s.wdLimit > 0 {
		// StepGuarded trips after ticking cycle c when c+1-wdLastChange >=
		// wdLimit; the first such c must be ticked, not skipped, so the
		// trip cycle and reported window match single-stepping exactly.
		if d := s.wdLastChange + s.wdLimit - 1; d < next {
			next = d
		}
	}
	for _, l := range limits {
		if l < next {
			next = l
		}
	}
	if next >= tilelink.NoEvent {
		// Fully idle with no armed clamp: there is no meaningful cycle to
		// land on; leave the clock alone and let the caller's loop decide.
		return 0
	}
	if next <= s.now {
		return 0
	}
	skipped := next - s.now
	s.now = next
	s.ctrSkipped.Add(uint64(skipped))
	return skipped
}
