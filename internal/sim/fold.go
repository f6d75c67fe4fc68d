package sim

// This file is the single source of truth for next-event folding: reducing
// a part's components' NextEvent(last) reports to the earliest cycle any of
// them can act. tileNext and hubNext (wake.go) fold every component of a
// tile or of the hub through foldNext, whether the ports are driven by
// core+L1 tiles (New) or by protocol-level clients (NewBare plus Attach), so
// chaos runs, tlctest episodes and the figures share one definition of
// "provably idle".
//
// The fold contract mirrors the NextEvent contract (fastforward.go): last is
// the most recently ticked cycle, so the floor — the earliest cycle that
// could possibly be ticked next — is last+1. Reports at or below the floor
// clamp to it, and a fold at the floor queries no further component, since
// none can lower the minimum further. Callers seed next with
// tilelink.NoEvent and chain one foldNext per component.

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
