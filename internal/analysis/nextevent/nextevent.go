// Package nextevent implements the skipit-vet analyzer guarding the
// fast-forward clock's completeness contract (internal/sim/fastforward.go):
//
//  1. In the component packages (boom, l1, l2, mem, tilelink, core), every
//     type that exposes a cycle hook — a Tick method — must also implement
//     NextEvent(int64) int64. A component without NextEvent cannot tell the
//     clock when it next acts, so every idle window containing it would have
//     to be single-stepped; worse, a conservative fold that ignores it would
//     skip cycles in which it acts, silently breaking the byte-identical
//     on/off guarantee.
//  2. In internal/sim, every System field whose type implements NextEvent
//     must be folded into (*System).nextEventCycle. Adding a component to
//     the SoC without folding it defeats fast-forward for exactly the
//     cycles that component needed — the class of bug that only shows up as
//     an A/B divergence thousands of cycles later.
package nextevent

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"skipit/internal/analysis/suppress"
)

var Analyzer = &analysis.Analyzer{
	Name: "nextevent",
	Doc: "check that every ticking component implements NextEvent and is folded into the fast-forward clock\n\n" +
		"A Step/Tick type without NextEvent, or a sim.System field left out of nextEventCycle, silently defeats fast-forward.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// componentPkgs lists the packages whose types are clocked components.
var componentPkgs = "internal/boom,internal/l1,internal/l2,internal/mem,internal/tilelink,internal/core"

func init() {
	Analyzer.Flags.StringVar(&componentPkgs, "pkgs", componentPkgs, "comma-separated import-path fragments of component packages")
}

func matches(path, list string) bool {
	for _, frag := range strings.Split(list, ",") {
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

func run(pass *analysis.Pass) (interface{}, error) {
	suppress.Apply(pass)
	if matches(pass.Pkg.Path(), componentPkgs) {
		checkComponents(pass)
	}
	if matches(pass.Pkg.Path(), "internal/sim") {
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

// checkFold enforces rule 2: every NextEvent-bearing System field is
// consulted by (*System).nextEventCycle.
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

	// Locate the (*System).nextEventCycle method body; another type's
	// nextEventCycle says nothing about System's fold.
	var foldBody *ast.BlockStmt
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fn := n.(*ast.FuncDecl)
		if fn.Recv == nil || fn.Name.Name != "nextEventCycle" || fn.Body == nil {
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
			foldBody = fn.Body
		}
	})

	// Fields needing a fold: type (after pointer/slice/array unwrapping)
	// implements NextEvent, concrete component or interface alike.
	type needed struct {
		field *types.Var
	}
	var need []needed
	for i := 0; i < sysStruct.NumFields(); i++ {
		f := sysStruct.Field(i)
		t := f.Type()
		for {
			switch u := t.(type) {
			case *types.Pointer:
				t = u.Elem()
				continue
			case *types.Slice:
				t = u.Elem()
				continue
			case *types.Array:
				t = u.Elem()
				continue
			}
			break
		}
		if hasNextEvent(t) {
			need = append(need, needed{field: f})
		}
	}
	if len(need) == 0 {
		return
	}

	if foldBody == nil {
		for _, n := range need {
			pass.Report(analysis.Diagnostic{
				Pos: n.field.Pos(),
				Message: fmt.Sprintf(
					"System field %s implements NextEvent but the package has no (*System).nextEventCycle to fold it into", n.field.Name()),
			})
		}
		return
	}

	// Which fields does the fold consult?
	folded := make(map[types.Object]bool)
	ast.Inspect(foldBody, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if obj := pass.TypesInfo.ObjectOf(sel.Sel); obj != nil {
			folded[obj] = true
		}
		return true
	})

	for _, n := range need {
		if !folded[types.Object(n.field)] {
			pass.Report(analysis.Diagnostic{
				Pos: n.field.Pos(),
				Message: fmt.Sprintf(
					"System field %s implements NextEvent but is not folded into nextEventCycle: fast-forward may skip cycles in which it acts", n.field.Name()),
			})
		}
	}
}
