package main

import (
	"strings"
	"testing"
)

// TestOutputRepeats runs the five schemes twice: with the threads
// interleaved in one goroutine, the printed throughputs must be identical.
func TestOutputRepeats(t *testing.T) {
	var first, second strings.Builder
	report(&first)
	report(&second)
	if first.String() != second.String() {
		t.Fatalf("two runs printed different output:\n%s\n%s", first.String(), second.String())
	}
	if got := strings.Count(first.String(), "Mops/s"); got != 5 {
		t.Fatalf("printed %d scheme rows, want 5:\n%s", got, first.String())
	}
}
