package sim

import (
	"runtime"
	"testing"
)

// newBytes returns the heap bytes one New(cfg) allocates, averaged over a
// few builds.
func newBytes(cfg Config) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const builds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		New(cfg)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / builds
}

// TestNewAllocatesOnlyWhatAJobTouches pins SoC construction cost: the L1
// data arrays and the L2's frames and data rows are made on first use, so a
// fresh system holds metadata, queues and counters only. The ceilings sit
// above today's 47 KB and 265 KB; the eager arrays they replaced cost
// 304 KB and 779 KB.
func TestNewAllocatesOnlyWhatAJobTouches(t *testing.T) {
	for _, tc := range []struct {
		cores   int
		ceiling uint64
	}{{1, 64 << 10}, {8, 320 << 10}} {
		if got := newBytes(DefaultConfig(tc.cores)); got > tc.ceiling {
			t.Errorf("New(DefaultConfig(%d)) allocates %d B, ceiling %d B", tc.cores, got, tc.ceiling)
		}
	}
}
