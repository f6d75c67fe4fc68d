package main

import (
	"strings"
	"testing"
)

// TestReportGolden pins the example's output byte for byte: the durable
// value, the value lost to a crash, and Skip It's flush statistics.
func TestReportGolden(t *testing.T) {
	var got strings.Builder
	report(&got)
	if got.String() != golden {
		t.Fatalf("output changed:\n got:\n%s\nwant:\n%s", got.String(), golden)
	}
}

const golden = `after store+clean+fence: NVMM[0x1000] = 42 (want 42)
after store+crash (no writeback): NVMM[0x2000] = 0 (want 0)
skipit=true : 11 CBO.CLEAN offered, 10 dropped by the skip bit, 1 RootReleases reached the L2
skipit=false: 20 CBO.CLEAN offered,  0 dropped by the skip bit, 11 RootReleases reached the L2
`
