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
// The same contract gives each part of the SoC a cached wake cycle
// (wake.go), so Step ticks only the parts that can act. When the earliest
// wake lies strictly beyond the next cycle to be ticked, every cycle in
// between is provably a no-op for the whole SoC: ticking them would change
// no architectural state, no metric, and no trace. FastForward advances the
// clock over that window in one jump instead of ticking through it, clamped
// so that no armed observation point is skipped:
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
// by default; turning it off forces single-stepping through idle windows,
// and every Step then ticks every part: the reference the fast-forward
// equivalence tests compare against.
func (s *System) SetFastForward(on bool) {
	s.fastForward = on
	s.wakeAll = true
}

// SkippedCycles returns the total number of cycles the fast-forward clock
// has skipped.
func (s *System) SkippedCycles() uint64 { return s.ctrSkipped.Value() }

// FastForward advances the clock over a provably idle window, if one exists.
// It must be called between Steps (the components were last ticked at
// Now()-1). The clock lands on the earliest of: the smallest cached part
// wake (wake.go), the sampler's next interval boundary, the watchdog's trip
// cycle, and any caller-provided limits. When the next cycle to tick is a
// caller limit, every part ticks on it. Returns the number of cycles
// skipped (0 when the next cycle is not skippable or fast-forwarding is
// off).
//
//skipit:hotpath
func (s *System) FastForward(limits ...int64) int64 {
	if !s.fastForward {
		return 0
	}
	var skipped int64
	if next := s.clamp(s.nextWake(), limits); next > s.now && next < tilelink.NoEvent {
		skipped = next - s.now
		s.now = next
		s.ctrSkipped.Add(uint64(skipped))
	}
	for _, l := range limits {
		if l == s.now {
			s.wakeAll = true
		}
	}
	return skipped
}

// clamp lowers next, the earliest part wake, to the first armed observation
// point after the last ticked cycle.
//
//skipit:hotpath
func (s *System) clamp(next int64, limits []int64) int64 {
	if next <= s.now {
		// Something can act next cycle; the clamps below only ever lower
		// next, so bail before computing them.
		return next
	}
	if s.sampler != nil {
		// The sampler fires whenever a ticked cycle is a multiple of its
		// interval; land exactly on the next boundary.
		iv := s.sampler.Interval()
		b := s.now
		if r := b % iv; r != 0 {
			b += iv - r
		}
		next = min(next, b)
	}
	if s.wdLimit > 0 {
		// StepGuarded trips after ticking cycle c when c+1-wdLastChange >=
		// wdLimit; the first such c must be ticked, not skipped, so the
		// trip cycle and reported window match single-stepping exactly.
		next = min(next, s.wdLastChange+s.wdLimit-1)
	}
	for _, l := range limits {
		next = min(next, l)
	}
	return next
}
