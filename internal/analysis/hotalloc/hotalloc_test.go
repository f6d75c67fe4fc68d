package hotalloc_test

import (
	"testing"

	"skipit/internal/analysis/antest"
	"skipit/internal/analysis/hotalloc"
)

func TestHotAlloc(t *testing.T) {
	antest.Run(t, hotalloc.Analyzer, antest.Dir(t, "hotalloc"))
}

// TestHotAllocCrossPackage proves Allocates facts survive the cross-package
// export/import round trip: the buf fixture exports them (reporting nothing
// itself), and the engine fixture's hotpath calls report with the full
// witness chain reconstructed from the imported facts.
func TestHotAllocCrossPackage(t *testing.T) {
	antest.Run(t, hotalloc.Analyzer,
		antest.Dir(t, "hotcross/buf"),
		antest.Dir(t, "hotcross/engine"))
}
