// Package corefix is the determinism-analyzer fixture for the flush unit.
// Its import path ends in internal/core, so the analyzer treats it as a
// simulator package.
package corefix

import "time"

// stamp reads the host clock where a flush unit would read its cycle.
func stamp() int64 {
	return time.Now().UnixNano() // want `wall-clock read time\.Now`
}
