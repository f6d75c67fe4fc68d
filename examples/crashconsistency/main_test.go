package main

import (
	"strings"
	"testing"
)

// TestReportGolden pins the example's output byte for byte. Recovery reads
// the log back from NVMM after two crashes, so the record count and the
// intact records check the whole write-back path end to end: the FSHR's
// RootRelease carries each line to the L2, and the L2 writes it through to
// DRAM.
func TestReportGolden(t *testing.T) {
	var got strings.Builder
	report(&got)
	if got.String() != golden {
		t.Fatalf("output changed:\n got:\n%s\nwant:\n%s", got.String(), golden)
	}
}

const golden = `power failure at cycle 1400 (appender mid-flight)
recovered record count: 9
all 9 counted records intact; records beyond the count are garbage by design
after recovery run + second crash: count = 20 (want 20)
log fully recovered: crash consistency holds end to end
`
