package sim

// This file is the single source of truth for next-event folding: reducing a
// set of components' NextEvent(last) reports to the earliest cycle anything
// in the set can act. System.nextEventCycle folds every component through
// these two helpers, whether the ports are driven by core+L1 tiles (New) or
// by protocol-level clients (NewBare plus Attach), so chaos runs, tlctest
// episodes and the figures share one definition of "provably idle".
//
// The fold contract mirrors the NextEvent contract (fastforward.go): last is
// the most recently ticked cycle, so the floor — the earliest cycle that
// could possibly be ticked next — is last+1. Reports at or below the floor
// clamp to it, and the fold bails out the moment the floor is reached, since
// no later component can lower the minimum further. Callers seed next with
// tilelink.NoEvent (or a previous fold's result, to chain folds) and check
// for the floor between chained calls to keep the bail-out effective.

// eventSource is any component on the fast-forward clock.
type eventSource interface {
	NextEvent(last int64) int64
}

// foldNext folds a single component into a running next-event minimum.
//
//skipit:hotpath
func foldNext(last, next int64, src eventSource) int64 {
	floor := last + 1
	if next <= floor {
		return floor
	}
	if t := src.NextEvent(last); t < next {
		if t <= floor {
			return floor
		}
		next = t
	}
	return next
}

// foldNextAll folds a homogeneous component slice, bailing at the floor.
// Generic so the call sites keep their concrete slice types (static
// dispatch, no per-element interface conversions on the hot path).
//
//skipit:hotpath
func foldNextAll[T eventSource](last, next int64, srcs []T) int64 {
	floor := last + 1
	if next <= floor {
		return floor
	}
	for _, s := range srcs {
		if t := s.NextEvent(last); t < next {
			if t <= floor {
				return floor
			}
			next = t
		}
	}
	return next
}
