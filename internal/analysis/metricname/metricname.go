// Package metricname implements the skipit-vet analyzer for the metrics
// registry's naming contract. Instruments are identified by
// "component.name" keys (metrics.Key); the metrics sidecars, the
// regression gate and the snapshot aggregator all join on those strings, so
// they must be:
//
//   - literal: a name built with fmt.Sprintf or string concatenation cannot
//     be grepped for and defeats this analyzer's duplicate check (instance
//     prefixes like "l1[0]" are the exception — they are runtime values by
//     design, and only the name part must be literal);
//   - snake_case (dots allowed in the name part for hierarchies);
//   - unique: the registry is get-or-create, so two components registering
//     the same key silently share one instrument — each increments the
//     other's numbers. In-package duplicates are reported directly;
//     cross-package duplicates are found through package facts exported to
//     every importer (intentional sharing, like the SoC-wide "chaos.*"
//     counters, carries //skipit:ignore waivers naming the design).
package metricname

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"skipit/internal/analysis/suppress"
)

var Analyzer = &analysis.Analyzer{
	Name: "metricname",
	Doc: "check that metric registrations use literal snake_case names with no duplicate keys across packages\n\n" +
		"The registry is get-or-create: a duplicate key silently merges two components' instruments.",
	Requires:  []*analysis.Analyzer{inspect.Analyzer},
	FactTypes: []analysis.Fact{new(Registrations)},
	Run:       run,
}

// metricsPkgSuffix identifies the metrics package (suffix-matched so fixture
// trees work).
const metricsPkgSuffix = "internal/metrics"

// registrars are the Registry methods that create instruments; the first
// two string arguments form the key.
var registrars = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}

var (
	// componentRE admits an optional "[N]" instance index ("l1[0]"): per-core
	// instruments share a name and differ only in the index.
	componentRE = regexp.MustCompile(`^[a-z0-9_]+(\[[0-9]+\])?$`)
	nameRE      = regexp.MustCompile(`^[a-z0-9_]+(\.[a-z0-9_]+)*$`)
)

// Registrations is the package fact carrying every metric key a package
// registers with literal component and name, so importers can detect
// cross-package collisions.
type Registrations struct {
	Keys map[string]string // "component.name" -> "file:line:col"
}

// AFact marks Registrations as an analysis fact.
func (*Registrations) AFact() {}

func (r *Registrations) String() string {
	keys := make([]string, 0, len(r.Keys))
	for k := range r.Keys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return "metrics(" + strings.Join(keys, ",") + ")"
}

func run(pass *analysis.Pass) (interface{}, error) {
	suppress.Apply(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	own := make(map[string]string) // key -> position of first registration

	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		call := n.(*ast.CallExpr)
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || !registrars[fn.Name()] || fn.Pkg() == nil {
			return true
		}
		sig := fn.Type().(*types.Signature)
		recv := sig.Recv()
		if recv == nil || !isRegistry(recv.Type()) || len(call.Args) < 2 {
			return true
		}

		compLit, compIsLit := stringLit(call.Args[0])
		nameLit, nameIsLit := stringLit(call.Args[1])

		if !nameIsLit {
			pass.Report(analysis.Diagnostic{
				Pos:     call.Args[1].Pos(),
				Message: fmt.Sprintf("metric name passed to %s must be a literal string so keys can be grepped and checked for collisions", fn.Name()),
			})
			return true
		}
		if !nameRE.MatchString(nameLit) {
			pass.Report(analysis.Diagnostic{
				Pos:     call.Args[1].Pos(),
				Message: fmt.Sprintf("metric name %q is not snake_case (want ^[a-z0-9_]+(\\.[a-z0-9_]+)*$)", nameLit),
			})
			return true
		}
		if compIsLit && !componentRE.MatchString(compLit) {
			pass.Report(analysis.Diagnostic{
				Pos:     call.Args[0].Pos(),
				Message: fmt.Sprintf("metric component %q is not snake_case (want ^[a-z0-9_]+$, optionally with an instance index like \"l1[0]\")", compLit),
			})
			return true
		}

		// Only full-literal keys participate in duplicate detection, and
		// only when the call is a registration rather than a read-through
		// (x.Counter("c","n").Value() reads an existing instrument). Test
		// files are exempt from duplicate tracking: tests re-get instruments
		// precisely to assert the get-or-create semantics.
		if !compIsLit || isReadThrough(stack) {
			return true
		}
		posn := pass.Fset.Position(call.Pos()).String()
		if strings.HasSuffix(pass.Fset.Position(call.Pos()).Filename, "_test.go") {
			return true
		}
		key := compLit + "." + nameLit
		if first, dup := own[key]; dup {
			pass.Report(analysis.Diagnostic{
				Pos:     call.Pos(),
				Message: fmt.Sprintf("metric key %q already registered at %s: the registry is get-or-create, so these sites silently share one instrument", key, first),
			})
			return true
		}
		own[key] = posn
		return true
	})

	// Cross-package collisions: our keys against every dependency's.
	for _, pf := range pass.AllPackageFacts() {
		regs, ok := pf.Fact.(*Registrations)
		if !ok || pf.Package == pass.Pkg {
			continue
		}
		for key, theirPos := range regs.Keys {
			if ourPos, clash := own[key]; clash {
				pass.Report(analysis.Diagnostic{
					Pos:     posFromString(pass, ourPos),
					Message: fmt.Sprintf("metric key %q also registered by package %s (%s): cross-package registrations share one instrument", key, pf.Package.Path(), theirPos),
				})
			}
		}
	}

	if len(own) > 0 {
		pass.ExportPackageFact(&Registrations{Keys: own})
	}
	return nil, nil
}

// isRegistry reports whether t is (a pointer to) metrics.Registry.
func isRegistry(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	p := named.Obj().Pkg().Path()
	return named.Obj().Name() == "Registry" &&
		(p == metricsPkgSuffix || strings.HasSuffix(p, "/"+metricsPkgSuffix))
}

// stringLit unwraps a basic string literal.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind.String() != "STRING" {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// isReadThrough reports whether the registrar call's result is immediately
// consumed by a method call (stack[len-1] is the CallExpr; its parent a
// SelectorExpr means x.Counter(...).Value()).
func isReadThrough(stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	_, ok := stack[len(stack)-2].(*ast.SelectorExpr)
	return ok
}

// posFromString locates an "own" position back in this package's fileset by
// re-parsing the "file:line:col" string; falls back to the package's first
// file if parsing fails (the message still carries both positions).
func posFromString(pass *analysis.Pass, posn string) token.Pos {
	// Positions recorded in `own` come from this pass's Fset, so match them
	// against the package's files.
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.Pos())
		if tf == nil {
			continue
		}
		prefix := tf.Name() + ":"
		if !strings.HasPrefix(posn, prefix) {
			continue
		}
		rest := strings.TrimPrefix(posn, prefix)
		parts := strings.SplitN(rest, ":", 2)
		line, err := strconv.Atoi(parts[0])
		if err != nil || line < 1 || line > tf.LineCount() {
			continue
		}
		return tf.LineStart(line)
	}
	if len(pass.Files) > 0 {
		return pass.Files[0].Pos()
	}
	return token.NoPos
}
