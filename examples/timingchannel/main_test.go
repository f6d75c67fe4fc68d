package main

import (
	"strings"
	"testing"
)

// TestReportGolden pins the example's output byte for byte: the probe
// latencies, and with them which boundary flushes close the channel.
func TestReportGolden(t *testing.T) {
	var got strings.Builder
	report(&got)
	if got.String() != golden {
		t.Fatalf("output changed:\n got:\n%s\nwant:\n%s", got.String(), golden)
	}
}

const golden = `no mitigation (victim state survives the context switch):
  real secret=0: probe latencies   4 /  80 cycles -> attacker infers secret=0
  real secret=1: probe latencies  80 /   4 cycles -> attacker infers secret=1
boundary CBO.FLUSH with Skip It ON — §6.1 drops the flush of the clean victim line, so it stays cached and STILL leaks:
  real secret=0: probe latencies   4 /  80 cycles -> attacker infers secret=0
  real secret=1: probe latencies  80 /   4 cycles -> attacker infers secret=1
boundary CBO.FLUSH with Skip It OFF — the flush really invalidates:
  real secret=0: probe latencies  80 /  80 cycles -> indistinguishable (channel closed)
  real secret=1: probe latencies  80 /  80 cycles -> indistinguishable (channel closed)
`
