package main

import (
	"strings"
	"testing"
)

// TestReportGolden pins the example's output byte for byte. The device
// reads the buffer straight from NVMM, so the CBO.CLEAN row checks the
// whole write-back path end to end: the FSHR's RootRelease carries the
// line to the L2, and the L2 writes it through to DRAM.
func TestReportGolden(t *testing.T) {
	var got strings.Builder
	report(&got)
	if got.String() != golden {
		t.Fatalf("output changed:\n got:\n%s\nwant:\n%s", got.String(), golden)
	}
}

const golden = `device performs DMA reads from main memory, bypassing CPU caches:
store + fence only       -> device sees [0 0 0 0 0 0 0 0]  (STALE: the buffer is still in the CPU caches)
store + CBO.CLEAN + fence -> device sees [100 101 102 103 104 105 106 107]  (complete: DMA-safe)
`
