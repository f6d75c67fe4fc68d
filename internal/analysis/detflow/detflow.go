// Package detflow implements the interprocedural half of the determinism
// contract: whole-program taint tracking from nondeterminism sources to the
// simulator packages, across function and package boundaries.
//
// The determinism analyzer is syntactic and per-function — it rejects a
// wall-clock read *written inside* a simulator package, but a helper two
// calls away in a package outside that scope (where clocks are legal) that
// leaks host time back into `internal/sim` passes it silently. detflow
// closes that gap with bottom-up function summaries:
//
//  1. Every function anywhere in the program whose body contains an unwaived
//     nondeterminism source — a wall-clock read, a global math/rand call, a
//     goroutine launch (outside _test.go files), or an order-sensitive map
//     range — is tainted.
//  2. Taint propagates bottom-up over the static call graph
//     (internal/analysis/callsum): a function that calls a tainted function
//     is tainted. Across package boundaries the taint travels as a Tainted
//     object fact carrying the shortest witness call chain down to the
//     source, so a diagnostic three packages away can still name the exact
//     time.Now that caused it.
//  3. Findings: a call into a tainted function from (a) a package in the
//     determinism analyzer's simulator scope (same -pkgs list), or (b) a
//     //skipit:hotpath function in any package. The diagnostic prints the
//     witness chain.
//
// Sources whose lines carry a //skipit:ignore determinism or
// //skipit:ignore detflow waiver do not taint: the human already certified
// the value never reaches simulated state (the System's host-throughput
// timers are the canonical case). Sources in _test.go files do not taint
// either — test compilation units cannot be linked into the simulator.
//
// Soundness limits (shared with every callsum consumer): calls through
// interfaces and function values do not resolve, so taint does not flow
// through them. The runtime golden-model and replay gates remain the
// backstop for those paths.
package detflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
	"skipit/internal/analysis/callsum"
	"skipit/internal/analysis/determinism"
	"skipit/internal/analysis/hotalloc"
	"skipit/internal/analysis/suppress"
)

var Analyzer = &analysis.Analyzer{
	Name: "detflow",
	Doc: "interprocedural determinism taint: report simulator/hotpath calls that transitively reach wall clocks, global rand, goroutines, or map-order folds\n\n" +
		"Function summaries travel as package facts, so the witness chain crosses package boundaries.",
	Requires:  []*analysis.Analyzer{callsum.Analyzer},
	FactTypes: []analysis.Fact{new(Tainted)},
	Run:       run,
}

// chainMax bounds witness chains embedded in facts and diagnostics; deeper
// chains are elided in the middle (the first hops and the source matter).
const chainMax = 8

// Tainted marks a function that transitively reaches a nondeterminism
// source. Chain is the witness call path, outermost callee first, ending at
// the source description (e.g. "time.Now at sim.go:313").
type Tainted struct {
	Chain []string
}

// AFact marks Tainted as an analysis fact.
func (*Tainted) AFact() {}

func (t *Tainted) String() string { return "tainted(" + strings.Join(t.Chain, " -> ") + ")" }

func run(pass *analysis.Pass) (interface{}, error) {
	suppress.Apply(pass)
	sums := pass.ResultOf[callsum.Analyzer].(*callsum.Summaries)

	detWaived := suppress.CoveredLines(pass, determinism.Analyzer.Name)
	flowWaived := suppress.CoveredLines(pass, pass.Analyzer.Name)
	waived := func(pos token.Pos) bool { return detWaived(pos) || flowWaived(pos) }

	// Seed: functions whose own bodies contain an unwaived source.
	tainted := make(map[*callsum.FuncInfo]*Tainted)
	for _, fi := range sums.Funcs {
		if fi.TestFile || fi.Decl.Body == nil {
			continue
		}
		if src := directSource(pass, fi, waived); src != "" {
			tainted[fi] = &Tainted{Chain: []string{src}}
		}
	}

	// Propagate bottom-up to a fixpoint over the in-package call graph,
	// consulting imported facts at cross-package edges. Iterating the
	// summaries in source order keeps the chosen witness chains
	// deterministic.
	calleeTaint := func(fi *callsum.FuncInfo, c callsum.Call) *Tainted {
		if local, ok := sums.ByObj[c.Callee]; ok {
			return tainted[local]
		}
		var fact Tainted
		if pass.ImportObjectFact(c.Callee, &fact) {
			return &fact
		}
		return nil
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range sums.Funcs {
			if tainted[fi] != nil || fi.TestFile {
				continue
			}
			for _, c := range fi.Calls {
				ct := calleeTaint(fi, c)
				if ct == nil || waived(c.Pos) {
					continue
				}
				hop := fmt.Sprintf("%s (%s)", callsum.Name(c.Callee), callsum.ShortPos(pass.Fset, c.Pos))
				tainted[fi] = &Tainted{Chain: callsum.TrimChain(append([]string{hop}, ct.Chain...), chainMax)}
				changed = true
				break
			}
		}
	}

	for fi, t := range tainted {
		pass.ExportObjectFact(fi.Obj, t)
	}

	// Findings: calls into tainted functions from simulator-scope packages
	// or //skipit:hotpath functions.
	simScope := determinism.InScope(pass.Pkg.Path())
	for _, fi := range sums.Funcs {
		if fi.TestFile {
			continue
		}
		hot := hotalloc.IsHotpath(fi.Decl)
		if !simScope && !hot {
			continue
		}
		for _, c := range fi.Calls {
			ct := calleeTaint(fi, c)
			if ct == nil {
				continue
			}
			where := "a simulator package"
			if !simScope {
				where = fmt.Sprintf("hot path %s", fi.Decl.Name.Name)
			}
			pass.Report(analysis.Diagnostic{
				Pos: c.Pos,
				Message: fmt.Sprintf("call into nondeterministic code from %s: %s -> %s",
					where, callsum.Name(c.Callee), strings.Join(ct.Chain, " -> ")),
			})
		}
	}
	return nil, nil
}

// directSource scans one function body for an unwaived nondeterminism
// source, returning its chain entry ("time.Now at sim.go:313") or "".
func directSource(pass *analysis.Pass, fi *callsum.FuncInfo, waived func(token.Pos) bool) string {
	var src string
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if src != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if desc, ok := determinism.NondetCall(pass.TypesInfo, n); ok && !waived(n.Pos()) {
				src = fmt.Sprintf("%s at %s", desc, callsum.ShortPos(pass.Fset, n.Pos()))
			}
		case *ast.GoStmt:
			if !waived(n.Pos()) {
				src = fmt.Sprintf("goroutine launch at %s", callsum.ShortPos(pass.Fset, n.Pos()))
			}
		case *ast.RangeStmt:
			determinism.MapRangeIssues(pass, n, func(pos token.Pos, what string) {
				if src == "" && !waived(pos) {
					src = fmt.Sprintf("order-sensitive map range at %s", callsum.ShortPos(pass.Fset, pos))
				}
			})
		}
		return true
	})
	return src
}
