// Package determinism implements the skipit-vet analyzer that statically
// enforces the simulator's reproducibility contract: identical inputs must
// produce byte-identical results (the property the sweep result store, the
// chaos replay artifacts and the fast-forward A/B gate all stand on).
//
// Within the simulator packages (configurable with -pkgs; defaults to the
// cycle-accurate core: boom, l1, l2, mem, tilelink, sim, memsim, linepool,
// chaos) it reports:
//
//   - wall-clock reads: time.Now / time.Since / time.Until. Host time must
//     never influence simulated state; the one legitimate use (host
//     throughput telemetry) carries a //skipit:ignore waiver.
//   - global math/rand and math/rand/v2 top-level functions (rand.Intn,
//     rand.Shuffle, ...). The global source is seeded from runtime entropy
//     and shared across goroutines; deterministic code derives a private
//     *rand.Rand from an explicit seed (rand.New(rand.NewSource(seed))).
//   - goroutine launches. The cycle loop is single-threaded by design;
//     host-side concurrency belongs in internal/sweep. (Skipped in _test.go
//     files, where harness goroutines are routine.)
//   - order-sensitive map iteration: a `range` over a map whose body writes
//     to the ranged map itself, appends to an outer slice with no sort
//     following the loop, sends on a channel, accumulates floats or strings,
//     or writes to an io.Writer/strings.Builder. Map iteration order is
//     deliberately randomized by the runtime, so each of these effects can
//     differ run to run.
package determinism

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"skipit/internal/analysis/suppress"
)

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "report wall-clock reads, global rand, goroutines, and order-sensitive map iteration in simulator packages\n\n" +
		"The sweep result store, chaos replay artifacts and fast-forward A/B gate all require byte-identical reruns; " +
		"this analyzer rejects the constructs that silently break that property.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// pkgs is the comma-separated list of import-path fragments that mark a
// package as part of the deterministic simulator core. A package is in
// scope when its import path ends with a fragment or contains it as an
// interior path segment (so fixture trees mirroring the real layout under
// testdata/src/ are matched too).
var pkgs = "internal/boom,internal/l1,internal/l2,internal/mem,internal/tilelink,internal/sim,internal/memsim,internal/linepool,internal/chaos,internal/detrand,internal/tlctest"

func init() {
	Analyzer.Flags.StringVar(&pkgs, "pkgs", pkgs, "comma-separated import-path fragments of deterministic simulator packages")
}

// InScope reports whether path is one of the simulator packages. Exported
// for detflow, which shares the determinism analyzer's scope definition
// (including any -determinism.pkgs override) so the two rule sets can never
// disagree about where the simulator boundary lies.
func InScope(path string) bool {
	for _, frag := range strings.Split(pkgs, ",") {
		frag = strings.TrimSpace(frag)
		if frag == "" {
			continue
		}
		if path == frag || strings.HasSuffix(path, "/"+frag) || strings.Contains(path, "/"+frag+"/") {
			return true
		}
	}
	return false
}

// wallClockFuncs are the time package functions that read the host clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// seededConstructors are the math/rand functions that are fine to call:
// they build explicitly seeded sources rather than consuming the global one.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

func run(pass *analysis.Pass) (interface{}, error) {
	suppress.Apply(pass)
	if !InScope(pass.Pkg.Path()) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	isTestFile := func(pos token.Pos) bool {
		return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
	}

	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil), (*ast.GoStmt)(nil), (*ast.RangeStmt)(nil)}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.GoStmt:
			if !isTestFile(n.Pos()) {
				pass.Report(analysis.Diagnostic{
					Pos:     n.Pos(),
					Message: "goroutine launched in a simulator package: the cycle loop is single-threaded; host-side concurrency belongs in internal/sweep",
				})
			}
		case *ast.RangeStmt:
			MapRangeIssues(pass, n, func(pos token.Pos, what string) {
				pass.Report(analysis.Diagnostic{Pos: pos, Message: "map iteration order is randomized: " + what})
			})
		}
	})
	return nil, nil
}

// checkCall flags wall-clock reads and global-rand calls.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	src, ok := NondetCall(pass.TypesInfo, call)
	if !ok {
		return
	}
	if strings.HasPrefix(src, "time.") {
		pass.Report(analysis.Diagnostic{
			Pos:     call.Pos(),
			Message: fmt.Sprintf("wall-clock read %s in a simulator package: host time must never influence simulated state (use the cycle clock)", src),
		})
	} else {
		pass.Report(analysis.Diagnostic{
			Pos:     call.Pos(),
			Message: fmt.Sprintf("global %s in a simulator package: the shared source is unseeded; derive a private generator with rand.New(rand.NewSource(seed))", src),
		})
	}
}

// NondetCall reports whether call is a direct nondeterminism source — a
// wall-clock read (time.Now/Since/Until) or a global math/rand function —
// returning a short description like "time.Now" or "rand.Intn". Methods on
// *rand.Rand or time.Time are the approved deterministic idiom and do not
// match. Shared with detflow, which seeds its interprocedural taint from the
// same definition of "source".
func NondetCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	// Only package-level functions: methods on *rand.Rand or time.Time are
	// the approved deterministic idiom.
	if fn.Type().(*types.Signature).Recv() != nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			return "time." + fn.Name(), true
		}
	case "math/rand", "math/rand/v2":
		if !seededConstructors[fn.Name()] {
			return "rand." + fn.Name(), true
		}
	}
	return "", false
}

// MapRangeIssues invokes emit for every order-sensitive effect inside a
// range over a map (writes to the ranged map, outer-slice appends with no
// sort, channel sends, float/string accumulation, writer output). The
// determinism run reports them directly; detflow seeds taint from them.
func MapRangeIssues(pass *analysis.Pass, rng *ast.RangeStmt, emit func(token.Pos, string)) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	rangedObj := exprObject(pass, rng.X)
	report := emit

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			report(n.Pos(), "channel send inside a map range makes message order nondeterministic")
		case *ast.IncDecStmt:
			// ++/-- on ints is commutative; nothing to report.
		case *ast.AssignStmt:
			checkRangeAssign(pass, rng, rangedObj, n, report)
		case *ast.CallExpr:
			checkRangeCall(pass, rng, n, report)
		}
		return true
	})
}

// checkRangeAssign inspects one assignment inside a map-range body.
func checkRangeAssign(pass *analysis.Pass, rng *ast.RangeStmt, rangedObj types.Object, as *ast.AssignStmt, report func(token.Pos, string)) {
	for i, lhs := range as.Lhs {
		// Writing to the map being ranged: the spec leaves it unspecified
		// whether entries added during iteration are visited.
		if idx, ok := lhs.(*ast.IndexExpr); ok {
			if obj := exprObject(pass, idx.X); obj != nil && obj == rangedObj {
				report(as.Pos(), "writing to the map being ranged over (new entries may or may not be visited this iteration)")
				continue
			}
		}
		// Order-sensitive accumulation into variables declared outside the
		// loop: float/string += (non-commutative or order-revealing).
		if as.Tok == token.ADD_ASSIGN || as.Tok == token.SUB_ASSIGN || as.Tok == token.MUL_ASSIGN || as.Tok == token.QUO_ASSIGN {
			obj := exprObject(pass, lhs)
			if obj != nil && declaredOutside(obj, rng) {
				switch b := pass.TypesInfo.TypeOf(lhs).Underlying().(type) {
				case *types.Basic:
					if b.Info()&types.IsFloat != 0 {
						report(as.Pos(), "float accumulation across map entries is order-sensitive (rounding differs per visit order)")
					} else if b.Info()&types.IsString != 0 {
						report(as.Pos(), "string concatenation across map entries depends on visit order")
					}
				}
			}
		}
		// x = append(x, ...) growing an outer slice: element order follows
		// visit order unless the slice is sorted afterwards.
		if i < len(as.Rhs) {
			if call, ok := as.Rhs[i].(*ast.CallExpr); ok && isBuiltin(pass, call.Fun, "append") {
				obj := exprObject(pass, lhs)
				if obj != nil && declaredOutside(obj, rng) && !sortedAfter(pass, rng, obj) {
					report(as.Pos(), "appending to an outer slice in map-visit order with no sort after the loop")
				}
			}
		}
	}
}

// checkRangeCall flags writes to writers/builders from inside a map range.
func checkRangeCall(pass *analysis.Pass, rng *ast.RangeStmt, call *ast.CallExpr, report func(token.Pos, string)) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if fn.Pkg().Path() == "fmt" && (strings.HasPrefix(fn.Name(), "Fprint") || strings.HasPrefix(fn.Name(), "Print")) {
		report(call.Pos(), "printing per map entry emits output in visit order")
		return
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && strings.HasPrefix(fn.Name(), "Write") {
		if robj := exprObject(pass, sel.X); robj != nil && declaredOutside(robj, rng) {
			report(call.Pos(), "writing to an outer writer per map entry emits output in visit order")
		}
	}
}

// sortedAfter reports whether a statement after rng in its enclosing block
// sorts the slice held by obj (sort.* or slices.Sort*).
func sortedAfter(pass *analysis.Pass, rng *ast.RangeStmt, obj types.Object) bool {
	block := enclosingBlock(pass, rng)
	if block == nil {
		return false
	}
	after := false
	for _, stmt := range block.List {
		if stmt == ast.Stmt(rng) {
			after = true
			continue
		}
		if !after {
			continue
		}
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fnObj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fnObj.Pkg() == nil {
				return true
			}
			pkg := fnObj.Pkg().Path()
			if pkg != "sort" && pkg != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if exprObject(pass, arg) == obj {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// enclosingBlock finds the innermost block statement containing n.
func enclosingBlock(pass *analysis.Pass, n ast.Node) *ast.BlockStmt {
	for _, f := range pass.Files {
		if f.Pos() <= n.Pos() && n.End() <= f.End() {
			var best *ast.BlockStmt
			ast.Inspect(f, func(m ast.Node) bool {
				if m == nil {
					return false
				}
				if m.Pos() > n.Pos() || n.End() > m.End() {
					return false
				}
				if b, ok := m.(*ast.BlockStmt); ok && m != n {
					best = b
				}
				return true
			})
			return best
		}
	}
	return nil
}

// exprObject resolves an expression to the variable object it denotes
// (ident or selector chain tail), or nil.
func exprObject(pass *analysis.Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pass.TypesInfo.ObjectOf(e)
	case *ast.SelectorExpr:
		return pass.TypesInfo.ObjectOf(e.Sel)
	}
	return nil
}

// declaredOutside reports whether obj's declaration lies outside rng's body
// (struct fields and package-level vars count as outside).
func declaredOutside(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() < rng.Body.Pos() || obj.Pos() > rng.Body.End()
}

// isBuiltin reports whether fun denotes the named builtin.
func isBuiltin(pass *analysis.Pass, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}
