// Package antest is a minimal analysistest replacement for the skipit-vet
// analyzers (x/tools' analysistest is not vendored; see
// third_party/golang.org/x/tools/README.md).
//
// Fixture packages live under internal/analysis/testdata/src/... as ordinary
// compilable packages — testdata directories are invisible to `./...`
// patterns, so `go build ./...`, `go test ./...` and skipit-vet itself never
// see the intentional violations, while antest loads them by explicit
// directory path. Expectations use analysistest's comment syntax:
//
//	time.Now() // want `wall-clock`
//
// Each `// want` comment carries one or more quoted or backquoted regular
// expressions; every diagnostic on that line must match one of them, and
// every expectation must be matched by exactly one diagnostic.
package antest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
	"skipit/internal/analysis/driver"
)

// Dir returns the path of the shared fixture tree,
// internal/analysis/testdata/src, joined with elem.
func Dir(t *testing.T, elem string) string {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("antest: cannot locate source tree")
	}
	return filepath.Join(filepath.Dir(self), "..", "testdata", "src", elem)
}

// Run loads the fixture packages rooted at dirs (paths relative to the
// repository or absolute), runs the analyzer over them, and checks the
// diagnostics against the fixtures' want comments.
func Run(t *testing.T, a *analysis.Analyzer, dirs ...string) {
	t.Helper()
	l := &driver.Loader{}
	pkgs, err := l.Load(dirs...)
	if err != nil {
		t.Fatalf("antest: load %v: %v", dirs, err)
	}
	diags, err := driver.Run(pkgs, l.Fset, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("antest: run %s: %v", a.Name, err)
	}

	// Only the named fixture packages carry expectations; dependencies (for
	// example the real metrics package) are analyzed for facts but must
	// stay diagnostic-free in fixtures.
	wants := make(map[string][]*want) // file:line -> expectations
	fixtureFiles := make(map[string]bool)
	for _, p := range pkgs {
		if !p.Listed {
			continue
		}
		for i, f := range p.GoFiles {
			fixtureFiles[f] = true
			collectWants(t, l.Fset, p, i, wants)
		}
	}

	var failed bool
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Posn.Filename, d.Posn.Line)
		if !fixtureFiles[d.Posn.Filename] {
			t.Errorf("unexpected diagnostic outside fixture: %s: %s (%s)", d.Posn, d.Message, d.Analyzer)
			failed = true
			continue
		}
		if !consume(wants[key], d.Message) {
			t.Errorf("unexpected diagnostic: %s: %s (%s)", d.Posn, d.Message, d.Analyzer)
			failed = true
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w.re.String())
				failed = true
			}
		}
	}
	if failed {
		t.Logf("all diagnostics from %s:", a.Name)
		for _, d := range diags {
			t.Logf("  %s: %s", d.Posn, d.Message)
		}
	}
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

// consume marks the first unmatched expectation matching msg.
func consume(ws []*want, msg string) bool {
	for _, w := range ws {
		if !w.matched && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants parses `// want` comments out of the i-th file of p.
func collectWants(t *testing.T, fset *token.FileSet, p *driver.Package, i int, wants map[string][]*want) {
	t.Helper()
	file := p.Files[i]
	name := p.GoFiles[i]
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			// Both comment forms carry expectations; the block form exists
			// for lines whose // position is already taken (for example a
			// line holding a skipit:ignore directive, which would swallow a
			// trailing // want as its reason).
			text := c.Text
			if strings.HasPrefix(text, "//") {
				text = strings.TrimPrefix(text, "//")
			} else {
				text = strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/")
			}
			text = strings.TrimSpace(text)
			rest, ok := strings.CutPrefix(text, "want ")
			if !ok {
				continue
			}
			line := fset.Position(c.Pos()).Line
			key := fmt.Sprintf("%s:%d", name, line)
			for _, pat := range splitPatterns(t, name, line, rest) {
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", name, line, pat, err)
				}
				wants[key] = append(wants[key], &want{re: re})
			}
		}
	}
}

// splitPatterns parses a want payload: a sequence of "double-quoted" or
// `backquoted` strings.
func splitPatterns(t *testing.T, file string, line int, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := 1
			for end < len(s) {
				if s[end] == '\\' {
					end += 2
					continue
				}
				if s[end] == '"' {
					break
				}
				end++
			}
			if end >= len(s) {
				t.Fatalf("%s:%d: unterminated want pattern: %s", file, line, s)
			}
			pat, err := strconv.Unquote(s[:end+1])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %s: %v", file, line, s[:end+1], err)
			}
			out = append(out, pat)
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Fatalf("%s:%d: unterminated want pattern: %s", file, line, s)
			}
			out = append(out, s[1:end+1])
			s = strings.TrimSpace(s[end+2:])
		default:
			t.Fatalf("%s:%d: want patterns must be quoted or backquoted: %s", file, line, s)
		}
	}
	return out
}
