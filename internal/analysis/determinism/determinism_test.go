package determinism_test

import (
	"testing"

	"skipit/internal/analysis/antest"
	"skipit/internal/analysis/determinism"
)

func TestDeterminism(t *testing.T) {
	antest.Run(t, determinism.Analyzer, antest.Dir(t, "internal/sim"))
}
