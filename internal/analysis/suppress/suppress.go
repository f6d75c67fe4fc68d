// Package suppress implements the shared suppression mechanism for the
// skipit-vet analyzers (see internal/analysis).
//
// A diagnostic is silenced by a directive comment:
//
//	//skipit:ignore <analyzer> <reason>
//
// placed either at the end of the offending line or alone on the line
// immediately above it. The reason is mandatory: a directive without one is
// itself reported as a diagnostic, so every waiver in the tree documents why
// the invariant does not apply at that site. A directive names exactly one
// analyzer and silences only that analyzer's diagnostics, and only on its
// target line — it never blankets a file or function.
//
// Every analyzer in the suite opts in by calling Apply(pass) as the first
// statement of its Run function; Apply wraps pass.Report with the filter and
// reports malformed directives that name the wrapped analyzer.
package suppress

import (
	"go/ast"
	"go/token"
	"strings"
	"sync"

	"golang.org/x/tools/go/analysis"
)

// Prefix is the directive marker. Like //go: directives it must start the
// comment with no space after the slashes.
const Prefix = "//skipit:ignore"

// Directive is one parsed //skipit:ignore comment.
type Directive struct {
	Pos      token.Pos // position of the comment
	Analyzer string    // analyzer it names ("" if absent)
	Reason   string    // justification ("" if absent)
	File     string    // file the directive appears in
	Line     int       // line the directive appears on
	Trailing bool      // shares its line with code (suppresses that line)
}

// Target returns the source line the directive covers: its own line when
// trailing, the next line when standalone.
func (d Directive) Target() int {
	if d.Trailing {
		return d.Line
	}
	return d.Line + 1
}

// usage records, process-wide, which directives actually suppressed a
// diagnostic. The staleignore analyzer reads it after the rest of the suite
// has run over a package — a well-formed directive whose (file, target line,
// analyzer) key was never hit is a dead waiver. The map is keyed by file
// path, so runs over distinct packages never collide; test-variant packages
// share their base package's files and simply mark the same keys again.
// The driver runs analyzers one at a time; the mutex keeps the table safe
// for any caller that runs two driver passes at once in one process.
var usage struct {
	sync.Mutex
	hit map[usageKey]bool
}

type usageKey struct {
	file     string
	line     int
	analyzer string
}

func markUsed(file string, line int, analyzer string) {
	usage.Lock()
	if usage.hit == nil {
		usage.hit = make(map[usageKey]bool)
	}
	usage.hit[usageKey{file, line, analyzer}] = true
	usage.Unlock()
}

// Used reports whether a directive covering (file, line) for the named
// analyzer suppressed at least one diagnostic in this process.
func Used(file string, line int, analyzer string) bool {
	usage.Lock()
	defer usage.Unlock()
	return usage.hit[usageKey{file, line, analyzer}]
}

// Apply wraps pass.Report so that diagnostics on lines covered by a
// well-formed //skipit:ignore directive naming this analyzer are dropped,
// and reports directives naming this analyzer that are missing a reason.
// Call it first in every analyzer's Run.
func Apply(pass *analysis.Pass) {
	dirs := Collect(pass)

	// A well-formed trailing directive covers its own line; a standalone
	// directive covers the next line.
	covered := make(map[int]bool)
	for _, d := range dirs {
		if d.Analyzer != pass.Analyzer.Name || d.Reason == "" {
			continue
		}
		covered[d.Target()] = true
	}

	orig := pass.Report
	pass.Report = func(diag analysis.Diagnostic) {
		posn := pass.Fset.Position(diag.Pos)
		if covered[posn.Line] {
			markUsed(posn.Filename, posn.Line, pass.Analyzer.Name)
			return
		}
		orig(diag)
	}

	// Malformed directives that name this analyzer are diagnostics in their
	// own right (and do not suppress anything, so the original finding
	// surfaces too).
	for _, d := range dirs {
		if d.Analyzer != pass.Analyzer.Name || d.Reason != "" {
			continue
		}
		pass.Report(analysis.Diagnostic{
			Pos:     d.Pos,
			Message: "skipit:ignore directive needs a reason: //skipit:ignore " + pass.Analyzer.Name + " <why this site is exempt>",
		})
	}
}

// CoveredLines returns the source lines (per file) waived for the named
// analyzer by well-formed directives. Interprocedural analyzers use it to
// keep waived sites out of exported summaries: a site a human certified as
// harmless must not taint every transitive caller. A directive that blocks
// a summary entry this way has done real work, so it is recorded in the
// usage tracker just like one that suppressed a diagnostic — staleignore
// must not flag it.
func CoveredLines(pass *analysis.Pass, analyzer string) func(token.Pos) bool {
	type fl struct {
		file string
		line int
	}
	covered := make(map[fl]bool)
	for _, d := range Collect(pass) {
		if d.Analyzer == analyzer && d.Reason != "" {
			covered[fl{d.File, d.Target()}] = true
		}
	}
	return func(pos token.Pos) bool {
		p := pass.Fset.Position(pos)
		if !covered[fl{p.Filename, p.Line}] {
			return false
		}
		markUsed(p.Filename, p.Line, analyzer)
		return true
	}
}

// Collect parses every skipit:ignore directive in the package's files.
func Collect(pass *analysis.Pass) []Directive {
	var out []Directive
	for _, f := range pass.Files {
		// Record, per line, the earliest offset of any code token so that a
		// directive can be classified as trailing (code before it on the
		// line) or standalone.
		codeOn := make(map[int]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil || !n.Pos().IsValid() {
				return true
			}
			if _, ok := n.(*ast.Comment); ok {
				return true
			}
			if _, ok := n.(*ast.CommentGroup); ok {
				return true
			}
			codeOn[pass.Fset.Position(n.Pos()).Line] = true
			return true
		})
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, Prefix)
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				posn := pass.Fset.Position(c.Pos())
				d := Directive{
					Pos:  c.Pos(),
					File: posn.Filename,
					Line: posn.Line,
				}
				if len(fields) > 0 {
					d.Analyzer = fields[0]
				}
				if len(fields) > 1 {
					d.Reason = strings.Join(fields[1:], " ")
				}
				// The AST walk above sees the comment's own line as code-free
				// unless a statement shares it, because comments were skipped.
				d.Trailing = codeOn[d.Line]
				out = append(out, d)
			}
		}
	}
	return out
}
