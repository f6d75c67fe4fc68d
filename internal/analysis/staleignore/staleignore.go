// Package staleignore implements dead-waiver detection: a
// //skipit:ignore directive whose named analyzer no longer reports anything
// on the covered line is itself a finding.
//
// The waiver audit trail only works if every directive in the tree still
// corresponds to a live, consciously-suppressed diagnostic. When the code
// under a waiver is rewritten — the allocation removed, the clock read
// deleted — the directive rots: it documents a decision about code that no
// longer exists, and it will silently swallow the NEXT diagnostic that
// happens to land on its line. This analyzer requires every
// other analyzer in the suite (so they have all run over the package by the
// time it executes), then asks the suppress layer which directives actually
// suppressed something; well-formed directives that never fired are
// reported, as are directives naming an analyzer that does not exist (a
// typo leaves the intended diagnostic live AND dangles a dead comment).
//
// Reasonless directives are skipped here — the named analyzer already
// reports those itself — and directives naming staleignore are honored like
// any other waiver, giving a grace period during refactors.
package staleignore

import (
	"fmt"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
	"skipit/internal/analysis/determinism"
	"skipit/internal/analysis/detflow"
	"skipit/internal/analysis/hotalloc"
	"skipit/internal/analysis/metricname"
	"skipit/internal/analysis/nextevent"
	"skipit/internal/analysis/poolown"
	"skipit/internal/analysis/suppress"
)

var Analyzer = &analysis.Analyzer{
	Name: "staleignore",
	Doc: "report //skipit:ignore directives whose diagnostic no longer fires on the covered line\n\n" +
		"Dead waivers rot the audit trail and silently swallow the next diagnostic on their line. " +
		"Must run after the rest of the suite; its Requires list guarantees that.",
	Requires: []*analysis.Analyzer{
		determinism.Analyzer,
		detflow.Analyzer,
		hotalloc.Analyzer,
		poolown.Analyzer,
		nextevent.Analyzer,
		metricname.Analyzer,
	},
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	suppress.Apply(pass)

	known := map[string]bool{pass.Analyzer.Name: true}
	var names []string
	for _, req := range pass.Analyzer.Requires {
		known[req.Name] = true
		names = append(names, req.Name)
	}
	sort.Strings(names)

	for _, d := range suppress.Collect(pass) {
		if d.Analyzer == "" || d.Reason == "" {
			continue // the named analyzer reports malformed directives itself
		}
		if d.Analyzer == pass.Analyzer.Name {
			continue // a staleignore waiver is handled by suppress.Apply above
		}
		if !known[d.Analyzer] {
			pass.Report(analysis.Diagnostic{
				Pos: d.Pos,
				Message: fmt.Sprintf("skipit:ignore names unknown analyzer %q (known: %s); the intended diagnostic is NOT suppressed",
					d.Analyzer, strings.Join(names, ", ")),
			})
			continue
		}
		if !suppress.Used(d.File, d.Target(), d.Analyzer) {
			pass.Report(analysis.Diagnostic{
				Pos: d.Pos,
				Message: fmt.Sprintf("stale waiver: %s no longer suppresses any %s diagnostic on this line — delete it (reason was: %s)",
					suppress.Prefix, d.Analyzer, d.Reason),
			})
		}
	}
	return nil, nil
}
