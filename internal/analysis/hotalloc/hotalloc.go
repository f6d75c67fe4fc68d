// Package hotalloc implements the skipit-vet analyzer that makes the CI
// alloc-gate's steady-state guarantee (BenchmarkStep: 1 alloc/op) a
// compile-time property. Functions annotated with a
//
//	//skipit:hotpath
//
// directive in their doc comment are the per-cycle paths — Step, the
// NextEvent fold, the tilelink fast paths. Inside them the analyzer reports
// every construct that allocates (or is indistinguishable, statically, from
// one that allocates), with the precise source position the benchmark-based
// gate cannot give:
//
//   - make / new
//   - append (growth cannot be bounded statically, so any append is suspect)
//   - map, slice, and pointer-to-composite literals
//   - closures that capture variables (the closure header is heap-allocated
//     when it escapes, e.g. via defer in a loop or storage)
//   - interface boxing: converting a non-pointer concrete value to an
//     interface type (call arguments, assignments, returns, conversions)
//   - string <-> []byte / []rune conversions
//   - defer inside a loop (deferred records are heap-allocated there)
//
// Amortized or cold allocations that live inside a hot function (the link
// queue's append in Send) carry //skipit:ignore waivers with reasons,
// keeping every intentional allocation documented at its site.
//
// The analyzer is also interprocedural: every function that is NOT hotpath-
// annotated but contains an unwaived allocation site (or transitively calls
// one, over the internal/analysis/callsum graph) exports an Allocates object
// fact carrying a witness chain down to the concrete site. A call from a
// //skipit:hotpath function into a function with an Allocates fact — in this
// package or any imported one — is a finding, so a hot path can no longer
// hide an allocation behind a helper in another package. Hotpath-annotated
// functions act as barriers in the propagation: their own bodies are checked
// site-by-site above, so they never carry an Allocates fact, and an audited
// hot helper does not smear "allocates" onto its callers. Functions in
// _test.go files neither earn nor propagate facts.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"skipit/internal/analysis/callsum"
	"skipit/internal/analysis/suppress"
)

// Directive marks a function as a zero-alloc hot path.
const Directive = "//skipit:hotpath"

var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "report allocation sites inside //skipit:hotpath functions, including transitive ones reached through calls\n\n" +
		"Turns the benchmark-based 1-alloc/op CI gate into a static check with exact positions. " +
		"Allocates facts carry witness chains across package boundaries.",
	Requires:  []*analysis.Analyzer{callsum.Analyzer},
	FactTypes: []analysis.Fact{new(Allocates)},
	Run:       run,
}

// chainMax bounds the witness chains embedded in facts and diagnostics.
const chainMax = 8

// Allocates marks a non-hotpath function that contains (or transitively
// reaches) an unwaived allocation site. Chain is the witness path, outermost
// callee first, ending at the concrete site description.
type Allocates struct {
	Chain []string
}

// AFact marks Allocates as an analysis fact.
func (*Allocates) AFact() {}

func (a *Allocates) String() string { return "allocates(" + strings.Join(a.Chain, " -> ") + ")" }

func run(pass *analysis.Pass) (interface{}, error) {
	suppress.Apply(pass)
	sums := pass.ResultOf[callsum.Analyzer].(*callsum.Summaries)
	waived := suppress.CoveredLines(pass, pass.Analyzer.Name)

	// Intraprocedural half: report every allocation site inside hotpath
	// bodies (suppress.Apply filters the waived ones).
	for _, fi := range sums.Funcs {
		if fi.Decl.Body == nil || !IsHotpath(fi.Decl) {
			continue
		}
		fn := fi.Decl
		sites(pass, fn, func(pos token.Pos, msg string) {
			pass.Report(analysis.Diagnostic{
				Pos:     pos,
				Message: fmt.Sprintf("%s in hot path %s", msg, fn.Name.Name),
			})
		})
	}

	// Summaries: seed Allocates for non-hotpath functions with an unwaived
	// site of their own.
	allocs := make(map[*callsum.FuncInfo]*Allocates)
	for _, fi := range sums.Funcs {
		if fi.TestFile || fi.Decl.Body == nil || IsHotpath(fi.Decl) {
			continue
		}
		var first string
		sites(pass, fi.Decl, func(pos token.Pos, msg string) {
			if first == "" && !waived(pos) {
				first = fmt.Sprintf("%s at %s", msg, callsum.ShortPos(pass.Fset, pos))
			}
		})
		if first != "" {
			allocs[fi] = &Allocates{Chain: []string{first}}
		}
	}

	calleeAlloc := func(c callsum.Call) *Allocates {
		if local, ok := sums.ByObj[c.Callee]; ok {
			return allocs[local]
		}
		var fact Allocates
		if pass.ImportObjectFact(c.Callee, &fact) {
			return &fact
		}
		return nil
	}

	// Propagate bottom-up to a fixpoint; hotpath functions are barriers.
	for changed := true; changed; {
		changed = false
		for _, fi := range sums.Funcs {
			if allocs[fi] != nil || fi.TestFile || IsHotpath(fi.Decl) {
				continue
			}
			for _, c := range fi.Calls {
				a := calleeAlloc(c)
				if a == nil || waived(c.Pos) {
					continue
				}
				hop := fmt.Sprintf("%s (%s)", callsum.Name(c.Callee), callsum.ShortPos(pass.Fset, c.Pos))
				allocs[fi] = &Allocates{Chain: callsum.TrimChain(append([]string{hop}, a.Chain...), chainMax)}
				changed = true
				break
			}
		}
	}

	for fi, a := range allocs {
		pass.ExportObjectFact(fi.Obj, a)
	}

	// Interprocedural findings: hotpath calls into allocating callees.
	for _, fi := range sums.Funcs {
		if !IsHotpath(fi.Decl) {
			continue
		}
		for _, c := range fi.Calls {
			a := calleeAlloc(c)
			if a == nil {
				continue
			}
			pass.Report(analysis.Diagnostic{
				Pos: c.Pos,
				Message: fmt.Sprintf("hot path %s calls allocating function: %s -> %s",
					fi.Decl.Name.Name, callsum.Name(c.Callee), strings.Join(a.Chain, " -> ")),
			})
		}
	}
	return nil, nil
}

// IsHotpath reports whether the function's doc comment carries the
// //skipit:hotpath directive.
func IsHotpath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if c.Text == Directive || strings.HasPrefix(c.Text, Directive+" ") {
			return true
		}
	}
	return false
}

// sites walks one function body and emits every allocation site with a
// pre-formatted message. Both halves of the analyzer share it: the hotpath
// loop reports the sites, the summary loop folds them into Allocates facts.
func sites(pass *analysis.Pass, fn *ast.FuncDecl, emit func(token.Pos, string)) {
	report := func(pos token.Pos, format string, args ...interface{}) {
		emit(pos, fmt.Sprintf(format, args...))
	}

	// ast.Inspect has no exit hook, so track loop nesting with an interval
	// stack instead: a node is inside a loop if its position falls within a
	// recorded loop body.
	var loops []ast.Node
	inLoop := func(pos token.Pos) bool {
		for _, l := range loops {
			if l.Pos() <= pos && pos <= l.End() {
				return true
			}
		}
		return false
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		// Allocation while building a panic message is crash-path by
		// definition: the episode is over and steady-state budgets no longer
		// apply. Skipping the whole argument tree keeps every cold
		// panic(fmt.Sprintf(...)) guard in the component sinks out of the
		// summaries without a waiver per site.
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					return false
				}
			}
		}
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n)

		case *ast.CallExpr:
			checkCall(pass, fn, n, report)

		case *ast.CompositeLit:
			checkCompositeLit(pass, n, report)

		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "pointer-to-composite literal allocates")
				}
			}

		case *ast.FuncLit:
			if captured := captures(pass, n); len(captured) > 0 {
				report(n.Pos(), "closure captures %s and may heap-allocate its environment", strings.Join(captured, ", "))
			}

		case *ast.DeferStmt:
			if inLoop(n.Pos()) {
				report(n.Pos(), "defer inside a loop heap-allocates its record")
			}

		case *ast.AssignStmt:
			for i := range n.Lhs {
				if i < len(n.Rhs) {
					checkBoxing(pass, pass.TypesInfo.TypeOf(n.Lhs[i]), n.Rhs[i], report)
				}
			}

		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					checkBoxing(pass, pass.TypesInfo.TypeOf(name), n.Values[i], report)
				}
			}

		case *ast.ReturnStmt:
			sig, ok := pass.TypesInfo.TypeOf(fn.Name).(*types.Signature)
			if !ok || sig.Results() == nil || len(n.Results) != sig.Results().Len() {
				break
			}
			for i, res := range n.Results {
				checkBoxing(pass, sig.Results().At(i).Type(), res, report)
			}
		}
		return true
	})
}

// checkCall flags make/new/append, allocation-shaped conversions, and
// interface boxing at call argument positions.
func checkCall(pass *analysis.Pass, fn *ast.FuncDecl, call *ast.CallExpr, report func(token.Pos, string, ...interface{})) {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				report(call.Pos(), "make allocates")
			case "new":
				report(call.Pos(), "new allocates")
			case "append":
				report(call.Pos(), "append may grow and allocate (growth is not statically boundable)")
			}
			return
		}
	}

	// Conversions: T(x).
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		target := tv.Type
		if len(call.Args) == 1 {
			argT := pass.TypesInfo.TypeOf(call.Args[0])
			if isInterface(target) {
				checkBoxing(pass, target, call.Args[0], report)
			} else if argT != nil && convAllocates(target, argT) {
				report(call.Pos(), "conversion %s -> %s copies and allocates", types.TypeString(argT, types.RelativeTo(pass.Pkg)), types.TypeString(target, types.RelativeTo(pass.Pkg)))
			}
		}
		return
	}

	// Ordinary calls: box-check each argument against its parameter type.
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var paramT types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				paramT = sig.Params().At(sig.Params().Len() - 1).Type()
			} else {
				paramT = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
			}
		case i < sig.Params().Len():
			paramT = sig.Params().At(i).Type()
		}
		if paramT != nil {
			checkBoxing(pass, paramT, arg, report)
		}
	}
}

// checkCompositeLit flags literals that always allocate.
func checkCompositeLit(pass *analysis.Pass, lit *ast.CompositeLit, report func(token.Pos, string, ...interface{})) {
	t := pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		report(lit.Pos(), "map literal allocates")
	case *types.Slice:
		report(lit.Pos(), "slice literal allocates")
	}
	// Struct and array value literals live on the stack unless their address
	// escapes; the &T{...} case is reported at the UnaryExpr.
}

// checkBoxing reports a conversion of a concrete non-pointer-shaped value
// into an interface slot.
func checkBoxing(pass *analysis.Pass, dst types.Type, src ast.Expr, report func(token.Pos, string, ...interface{})) {
	if dst == nil || !isInterface(dst) {
		return
	}
	tv, ok := pass.TypesInfo.Types[src]
	if !ok || tv.Type == nil {
		return
	}
	if tv.IsNil() || isInterface(tv.Type) {
		return
	}
	if pointerShaped(tv.Type) {
		return // the interface data word holds the value directly; no allocation
	}
	report(src.Pos(), "interface boxing of %s value allocates", types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)))
}

// convAllocates reports conversions that copy backing storage.
func convAllocates(dst, src types.Type) bool {
	d, s := dst.Underlying(), src.Underlying()
	isStr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		sl, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		b, ok := sl.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(s) && isByteOrRuneSlice(d)) || (isByteOrRuneSlice(s) && isStr(d))
}

// isInterface reports whether t's underlying type is an interface.
func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// pointerShaped reports whether values of t fit in an interface's data word
// without allocation ("direct interface types" in compiler terms): pointers,
// channels, maps, funcs, unsafe.Pointer — and, recursively, single-field
// structs and length-1 arrays wrapping one of those. Wrapper structs like
// sim's clientSide exist precisely so converting them to an interface stays
// allocation-free, and must not be flagged.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		return u.NumFields() == 1 && pointerShaped(u.Field(0).Type())
	case *types.Array:
		return u.Len() == 1 && pointerShaped(u.Elem())
	}
	return false
}

// captures returns the names of variables a function literal captures from
// enclosing scopes (package-level objects do not count).
func captures(pass *analysis.Pass, lit *ast.FuncLit) []string {
	seen := make(map[string]bool)
	var out []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured: declared outside the literal but not at package scope.
		if v.Parent() == nil || v.Parent() == pass.Pkg.Scope() || v.Pkg() == nil || v.Pkg().Scope() == v.Parent() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true
		}
		if !seen[v.Name()] {
			seen[v.Name()] = true
			out = append(out, v.Name())
		}
		return true
	})
	return out
}
