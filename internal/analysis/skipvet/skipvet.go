// Package skipvet assembles the skipit-vet analyzer suite: the analyzers
// that statically enforce the simulator's determinism, zero-alloc and
// fast-forward invariants. cmd/skipit-vet runs exactly this list; tests and
// future tools should import it rather than enumerating analyzers
// themselves so the suite cannot drift between entry points.
package skipvet

import (
	"golang.org/x/tools/go/analysis"
	"skipit/internal/analysis/determinism"
	"skipit/internal/analysis/detflow"
	"skipit/internal/analysis/hotalloc"
	"skipit/internal/analysis/metricname"
	"skipit/internal/analysis/nextevent"
	"skipit/internal/analysis/staleignore"
)

// Analyzers is the full skipit-vet suite, in reporting order. staleignore
// must stay last: it asks the suppress layer which waivers fired, so every
// analyzer capable of consuming a waiver has to run over the package first
// (its Requires list enforces this for the driver; the position documents
// it for readers).
var Analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	detflow.Analyzer,
	hotalloc.Analyzer,
	nextevent.Analyzer,
	metricname.Analyzer,
	staleignore.Analyzer,
}
