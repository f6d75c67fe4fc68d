// Package nextevent implements the skipit-vet analyzer guarding the
// fast-forward clock's completeness contract (internal/sim/fastforward.go):
//
//  1. In the simulator packages (determinism.InScope: boom, l1, l2, mem,
//     tilelink, core, sim and the rest), every type that exposes a cycle
//     hook — a Tick method — must also implement NextEvent(int64) int64.
//     A component without NextEvent cannot tell the clock when it next
//     acts, so every idle window containing it would have to be
//     single-stepped; worse, a conservative fold that ignores it would skip
//     cycles in which it acts, silently breaking the byte-identical on/off
//     guarantee.
//  2. In internal/sim, every System field whose type implements NextEvent
//     must be folded into a part's wake: consulted by (*System).tileNext or
//     (*System).hubNext (internal/sim/wake.go). A field whose element type
//     bundles NextEvent-bearing fields (a ClientPort's five channels) must
//     have each of those channels consulted there too. Adding a component
//     to the SoC, or a channel to a port, without folding it lets its part
//     sleep through exactly the cycles it acts in — the class of bug that
//     only shows up as an A/B divergence thousands of cycles later.
package nextevent

import (
	"fmt"
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"skipit/internal/analysis/determinism"
	"skipit/internal/analysis/suppress"
)

var Analyzer = &analysis.Analyzer{
	Name: "nextevent",
	Doc: "check that every ticking component implements NextEvent and is folded into a part's wake\n\n" +
		"A Step/Tick type without NextEvent, or a sim.System field or port channel left out of tileNext and hubNext, lets a part sleep through cycles in which it acts.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	suppress.Apply(pass)
	if determinism.InScope(pass.Pkg.Path()) {
		checkComponents(pass)
	}
	if determinism.Matches(pass.Pkg.Path(), "internal/sim") {
		checkFold(pass)
	}
	return nil, nil
}

// hasNextEvent reports whether *T implements NextEvent(int64) int64, or T
// itself when T is an interface (a pointer to an interface has no methods).
func hasNextEvent(t types.Type) bool {
	if named, ok := t.(*types.Named); ok && !types.IsInterface(named) {
		t = types.NewPointer(named)
	}
	m, _, _ := types.LookupFieldOrMethod(t, true, nil, "NextEvent")
	fn, ok := m.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	isInt64 := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Kind() == types.Int64
	}
	return isInt64(sig.Params().At(0).Type()) && isInt64(sig.Results().At(0).Type())
}

// checkComponents enforces rule 1: Tick implies NextEvent.
func checkComponents(pass *analysis.Pass) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fn := n.(*ast.FuncDecl)
		if fn.Recv == nil || fn.Name.Name != "Tick" {
			return
		}
		obj := pass.TypesInfo.Defs[fn.Name]
		if obj == nil {
			return
		}
		recv := obj.(*types.Func).Type().(*types.Signature).Recv()
		if recv == nil {
			return
		}
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		named, ok := rt.(*types.Named)
		if !ok {
			return
		}
		if !hasNextEvent(named) {
			pass.Report(analysis.Diagnostic{
				Pos: fn.Pos(),
				Message: fmt.Sprintf(
					"%s has a Tick method but no NextEvent(int64) int64: the fast-forward clock cannot see this component and may skip cycles in which it acts",
					named.Obj().Name()),
			})
		}
	})
}

// wakeFuncs names the (*System) methods that fold the part wakes.
var wakeFuncs = map[string]bool{"tileNext": true, "hubNext": true}

// checkFold enforces rule 2: every NextEvent-bearing System field, and every
// NextEvent-bearing field of such a field's element type, is consulted by a
// wake method.
func checkFold(pass *analysis.Pass) {
	scope := pass.Pkg.Scope()
	sysObj, ok := scope.Lookup("System").(*types.TypeName)
	if !ok {
		return
	}
	sysStruct, ok := sysObj.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}

	// Locate the (*System) wake method bodies; another type's methods of
	// the same names say nothing about System's wakes.
	var bodies []*ast.BlockStmt
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fn := n.(*ast.FuncDecl)
		if fn.Recv == nil || !wakeFuncs[fn.Name.Name] || fn.Body == nil {
			return
		}
		obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
		if !ok {
			return
		}
		rt := obj.Type().(*types.Signature).Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok && named.Obj() == sysObj {
			bodies = append(bodies, fn.Body)
		}
	})

	// Fields needing a fold: type (after pointer/slice/array unwrapping)
	// implements NextEvent, concrete component or interface alike.
	var need []*types.Var
	for i := 0; i < sysStruct.NumFields(); i++ {
		if f := sysStruct.Field(i); hasNextEvent(elem(f.Type())) {
			need = append(need, f)
		}
	}
	if len(need) == 0 {
		return
	}

	if len(bodies) == 0 {
		for _, f := range need {
			pass.Report(analysis.Diagnostic{
				Pos: f.Pos(),
				Message: fmt.Sprintf(
					"System field %s implements NextEvent but the package has no (*System).tileNext or hubNext to fold it into", f.Name()),
			})
		}
		return
	}

	// Which fields do the wakes consult?
	folded := make(map[types.Object]bool)
	for _, body := range bodies {
		ast.Inspect(body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if obj := pass.TypesInfo.ObjectOf(sel.Sel); obj != nil {
				folded[obj] = true
			}
			return true
		})
	}

	for _, f := range need {
		if !folded[types.Object(f)] {
			pass.Report(analysis.Diagnostic{
				Pos: f.Pos(),
				Message: fmt.Sprintf(
					"System field %s implements NextEvent but is folded into neither tileNext nor hubNext: its part may sleep through cycles in which it acts", f.Name()),
			})
			continue
		}
		// A bundle of channels (a struct with no Tick of its own, unlike
		// a component, which folds its parts into its own NextEvent):
		// each NextEvent-bearing field must reach some part's wake.
		st, ok := elem(f.Type()).Underlying().(*types.Struct)
		if !ok || hasMethod(elem(f.Type()), "Tick") {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			ch := st.Field(i)
			if hasNextEvent(elem(ch.Type())) && !folded[types.Object(ch)] {
				pass.Report(analysis.Diagnostic{
					Pos: f.Pos(),
					Message: fmt.Sprintf(
						"System field %s: its %s implements NextEvent but is folded into neither tileNext nor hubNext: the part it delivers to may sleep through a message", f.Name(), ch.Name()),
				})
			}
		}
	}
}

// hasMethod reports whether *T (or T, for an interface) has a method name.
func hasMethod(t types.Type, name string) bool {
	if named, ok := t.(*types.Named); ok && !types.IsInterface(named) {
		t = types.NewPointer(named)
	}
	m, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
	_, isFunc := m.(*types.Func)
	return isFunc
}

// elem unwraps pointers, slices and arrays down to the element type.
func elem(t types.Type) types.Type {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		default:
			return t
		}
	}
}
