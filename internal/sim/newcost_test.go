package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// newCost returns the heap bytes and allocations one New(cfg) costs,
// averaged over a few builds.
func newCost(cfg Config) (bytes, allocs uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const builds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		New(cfg)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / builds, (after.Mallocs - before.Mallocs) / builds
}

// TestNewAllocatesOnlyWhatAJobTouches pins SoC construction cost: the L1
// metadata and data arrays and the L2's frames, directory and data rows are
// made on first use, and instruments come from the registry's blocks, so a
// fresh system holds queues, MSHRs and counters only. The ceilings sit above
// today's 17 KB in 51 allocations at 1 core and 63 KB in 231 at 8; eager
// metadata and directory arrays with a map-keyed registry cost 47 KB in 193
// allocations and 265 KB in 958, and eager data and frame arrays before
// them 304 KB and 779 KB.
func TestNewAllocatesOnlyWhatAJobTouches(t *testing.T) {
	for _, tc := range []struct {
		cores     int
		maxBytes  uint64
		maxAllocs uint64
	}{{1, 24 << 10, 60}, {8, 72 << 10, 450}} {
		bytes, allocs := newCost(DefaultConfig(tc.cores))
		if bytes > tc.maxBytes {
			t.Errorf("New(DefaultConfig(%d)) allocates %d B, ceiling %d B", tc.cores, bytes, tc.maxBytes)
		}
		if allocs > tc.maxAllocs {
			t.Errorf("New(DefaultConfig(%d)) makes %d allocations, ceiling %d", tc.cores, allocs, tc.maxAllocs)
		}
	}
}

// BenchmarkNew times SoC construction at 1 and 8 cores.
func BenchmarkNew(b *testing.B) {
	for _, cores := range []int{1, 8} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			cfg := DefaultConfig(cores)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				New(cfg)
			}
		})
	}
}
