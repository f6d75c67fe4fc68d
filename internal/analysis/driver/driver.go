// Package driver loads Go packages and runs go/analysis analyzers over them
// in-process. It is the engine behind `skipit-vet ./...` (standalone mode)
// and the antest fixture runner.
//
// x/tools' own multichecker sits on go/packages, which drags in export-data
// readers and x/sync; this driver instead shells out to `go list -json -deps`
// for package metadata (the go command is the one tool guaranteed present)
// and type-checks every non-standard-library package from source in
// dependency order. Standard-library imports are resolved by the compiler's
// source importer. Everything is typechecked within one *token.FileSet and
// one importer universe, so type identities line up across packages and
// package facts flow along import edges exactly as in a real vet run.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// listPkg is the subset of `go list -json` output the driver consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	Standard   bool
	GoFiles    []string
	ForTest    string
	ImportMap  map[string]string
	Module     *struct {
		Path      string
		Version   string
		GoVersion string
		Main      bool
	}
	Error *struct{ Err string }
}

// Package is one loaded, type-checked package.
type Package struct {
	ID        string // go list ImportPath, unique per compilation unit
	PkgPath   string // canonical import path (test variants share the base's)
	Files     []*ast.File
	GoFiles   []string
	Types     *types.Package
	TypesInfo *types.Info
	Module    *analysis.Module
	importMap map[string]string
	// Listed reports whether the package matched the load patterns itself
	// (as opposed to being pulled in as a dependency).
	Listed bool
}

// Diagnostic is one finding, with its analyzer and resolved position.
type Diagnostic struct {
	Analyzer string
	Posn     token.Position
	Message  string
}

// Loader loads and type-checks packages.
type Loader struct {
	Fset  *token.FileSet
	Tests bool   // include _test.go compilation units
	Dir   string // working directory for go list ("" = current)

	built map[string]*Package // by ID
	src   types.Importer      // source importer for the standard library
}

// Load runs `go list` on the patterns and type-checks every non-standard
// package in dependency order. It returns the loaded packages in that order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if l.Fset == nil {
		l.Fset = token.NewFileSet()
	}
	l.built = make(map[string]*Package)
	l.src = importer.ForCompiler(l.Fset, "source", nil)

	args := []string{"list", "-e", "-json=ImportPath,Dir,Name,Standard,GoFiles,ForTest,ImportMap,Module,Error", "-deps"}
	if l.Tests {
		args = append(args, "-test")
	}
	args = append(args, "--")
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, errb.String())
	}

	var metas []*listPkg
	dec := json.NewDecoder(&out)
	for dec.More() {
		m := new(listPkg)
		if err := dec.Decode(m); err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		metas = append(metas, m)
	}

	// `go list -deps` emits dependencies before dependents, so a single
	// forward pass type-checks every import before its importers.
	var pkgs []*Package
	for _, m := range metas {
		if m.Standard {
			continue // resolved by the source importer on demand
		}
		// Before the name check: a pattern naming a missing directory
		// comes back with an error and no name, and must not lint as clean.
		if m.Error != nil && len(m.GoFiles) == 0 {
			return nil, fmt.Errorf("%s: %s", m.ImportPath, m.Error.Err)
		}
		if strings.HasSuffix(m.ImportPath, ".test") || m.Name == "" {
			continue // synthesized test main packages
		}
		p, err := l.typecheck(m)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}

	// Mark the packages the caller actually named (rather than deps): a
	// second plain `go list` of the same patterns.
	named, err := l.listNames(patterns)
	if err != nil {
		return nil, err
	}
	for _, p := range pkgs {
		if named[p.PkgPath] {
			p.Listed = true
		}
	}
	return pkgs, nil
}

func (l *Loader) listNames(patterns []string) (map[string]bool, error) {
	args := []string{"list", "-e", "--"}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v", patterns, err)
	}
	names := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if line != "" {
			names[strings.TrimSpace(line)] = true
		}
	}
	return names, nil
}

// typecheck parses and type-checks one package from source.
func (l *Loader) typecheck(m *listPkg) (*Package, error) {
	var files []*ast.File
	var goFiles []string
	for _, f := range m.GoFiles {
		if !filepath.IsAbs(f) {
			f = filepath.Join(m.Dir, f)
		}
		af, err := parser.ParseFile(l.Fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", m.ImportPath, err)
		}
		files = append(files, af)
		goFiles = append(goFiles, f)
	}

	pkgPath := m.ImportPath
	if i := strings.Index(pkgPath, " ["); i >= 0 {
		pkgPath = pkgPath[:i] // "p [p.test]" variants share the base path
	}

	info := &types.Info{
		Types:        make(map[ast.Expr]types.TypeAndValue),
		Instances:    make(map[*ast.Ident]types.Instance),
		Defs:         make(map[*ast.Ident]types.Object),
		Uses:         make(map[*ast.Ident]types.Object),
		Implicits:    make(map[ast.Node]types.Object),
		Selections:   make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:       make(map[ast.Node]*types.Scope),
		FileVersions: make(map[*ast.File]string),
	}
	p := &Package{
		ID:        m.ImportPath,
		PkgPath:   pkgPath,
		Files:     files,
		GoFiles:   goFiles,
		TypesInfo: info,
		importMap: m.ImportMap,
	}
	if m.Module != nil {
		p.Module = &analysis.Module{Path: m.Module.Path, Version: m.Module.Version, GoVersion: m.Module.GoVersion}
	}
	conf := &types.Config{
		Importer: &pkgImporter{l: l, pkg: p},
		Error:    func(error) {}, // collect soft errors but keep going
	}
	tpkg, err := conf.Check(pkgPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", m.ImportPath, err)
	}
	p.Types = tpkg
	l.built[m.ImportPath] = p
	if _, exists := l.built[pkgPath]; m.ImportPath == pkgPath || !exists {
		// A test variant also answers for its base path unless the base was
		// built separately (importers resolve through ImportMap anyway).
		l.built[pkgPath] = p
	}
	return p, nil
}

// pkgImporter resolves one package's imports: module-local packages from the
// loader's already-built set (honoring the package's ImportMap for test
// variants), standard-library packages through the source importer.
type pkgImporter struct {
	l   *Loader
	pkg *Package
}

func (i *pkgImporter) Import(path string) (*types.Package, error) {
	id := path
	if m, ok := i.pkg.importMap[path]; ok {
		id = m
	}
	if p, ok := i.l.built[id]; ok {
		return p.Types, nil
	}
	return i.l.src.Import(path)
}

// Run executes the analyzers (and their transitive requirements) over each
// package, returning all root-analyzer diagnostics. Suppressed diagnostics
// never reach the returned slice (analyzers filter via suppress.Apply).
// Identical findings reported for both a package and its test variant are
// deduplicated.
func Run(pkgs []*Package, fset *token.FileSet, analyzers []*analysis.Analyzer) ([]Diagnostic, error) {
	for _, a := range analyzers {
		if err := analysis.Validate([]*analysis.Analyzer{a}); err != nil {
			return nil, err
		}
	}
	facts := newFactStore()
	var diags []Diagnostic
	seen := make(map[string]bool)
	for _, p := range pkgs {
		results := make(map[*analysis.Analyzer]interface{})
		for _, a := range analyzers {
			if err := runAnalyzer(a, p, fset, facts, results, func(name string, d analysis.Diagnostic) {
				posn := fset.Position(d.Pos)
				key := fmt.Sprintf("%s|%s|%s", name, posn, d.Message)
				if seen[key] {
					return
				}
				seen[key] = true
				diags = append(diags, Diagnostic{Analyzer: name, Posn: posn, Message: d.Message})
			}); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, p.ID, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Posn.Filename != b.Posn.Filename {
			return a.Posn.Filename < b.Posn.Filename
		}
		if a.Posn.Line != b.Posn.Line {
			return a.Posn.Line < b.Posn.Line
		}
		if a.Posn.Column != b.Posn.Column {
			return a.Posn.Column < b.Posn.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// runAnalyzer runs a (and its requirements, memoized in results) on p.
// Requirement runs report through the same callback as roots: every analyzer
// in the suite is in the root set anyway, and routing requirement
// diagnostics to the real sink means root ordering cannot swallow them (the
// caller deduplicates, so an analyzer reached both as a root and as another
// root's requirement reports once).
func runAnalyzer(a *analysis.Analyzer, p *Package, fset *token.FileSet, facts *factStore, results map[*analysis.Analyzer]interface{}, report func(string, analysis.Diagnostic)) error {
	if _, done := results[a]; done {
		return nil
	}
	for _, req := range a.Requires {
		if err := runAnalyzer(req, p, fset, facts, results, report); err != nil {
			return err
		}
	}
	resultOf := make(map[*analysis.Analyzer]interface{})
	for _, req := range a.Requires {
		resultOf[req] = results[req]
	}
	pass := &analysis.Pass{
		Analyzer:   a,
		Fset:       fset,
		Files:      p.Files,
		Pkg:        p.Types,
		TypesInfo:  p.TypesInfo,
		TypesSizes: types.SizesFor("gc", runtime.GOARCH),
		Module:     p.Module,
		ResultOf:   resultOf,
		Report:     func(d analysis.Diagnostic) { report(a.Name, d) },
		ReadFile:   os.ReadFile,
	}
	facts.bind(pass, p)
	res, err := a.Run(pass)
	if err != nil {
		return err
	}
	if a.ResultType != nil && res != nil && reflect.TypeOf(res) != a.ResultType {
		return fmt.Errorf("result type %T does not match declared %v", res, a.ResultType)
	}
	results[a] = res
	return nil
}

// factStore implements in-process package/object facts. Package facts are
// keyed by package path so that facts exported while analyzing a package are
// visible to its importers regardless of *types.Package identity.
type factStore struct {
	pkgFacts map[string]map[reflect.Type]analysis.Fact
	objFacts map[types.Object]map[reflect.Type]analysis.Fact
}

func newFactStore() *factStore {
	return &factStore{
		pkgFacts: make(map[string]map[reflect.Type]analysis.Fact),
		objFacts: make(map[types.Object]map[reflect.Type]analysis.Fact),
	}
}

func (s *factStore) bind(pass *analysis.Pass, p *Package) {
	pass.ImportPackageFact = func(pkg *types.Package, fact analysis.Fact) bool {
		f, ok := s.pkgFacts[pkg.Path()][reflect.TypeOf(fact)]
		if !ok {
			return false
		}
		reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(f).Elem())
		return true
	}
	pass.ExportPackageFact = func(fact analysis.Fact) {
		m := s.pkgFacts[p.PkgPath]
		if m == nil {
			m = make(map[reflect.Type]analysis.Fact)
			s.pkgFacts[p.PkgPath] = m
		}
		m[reflect.TypeOf(fact)] = fact
	}
	pass.AllPackageFacts = func() []analysis.PackageFact {
		var out []analysis.PackageFact
		for path, m := range s.pkgFacts {
			pkg := findImported(pass.Pkg, path)
			if pkg == nil {
				continue
			}
			for _, f := range m {
				out = append(out, analysis.PackageFact{Package: pkg, Fact: f})
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Package.Path() < out[j].Package.Path() })
		return out
	}
	pass.ImportObjectFact = func(obj types.Object, fact analysis.Fact) bool {
		f, ok := s.objFacts[obj][reflect.TypeOf(fact)]
		if !ok {
			return false
		}
		reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(f).Elem())
		return true
	}
	pass.ExportObjectFact = func(obj types.Object, fact analysis.Fact) {
		m := s.objFacts[obj]
		if m == nil {
			m = make(map[reflect.Type]analysis.Fact)
			s.objFacts[obj] = m
		}
		m[reflect.TypeOf(fact)] = fact
	}
	pass.AllObjectFacts = func() []analysis.ObjectFact {
		var out []analysis.ObjectFact
		for obj, m := range s.objFacts {
			for _, f := range m {
				out = append(out, analysis.ObjectFact{Object: obj, Fact: f})
			}
		}
		return out
	}
}

// findImported locates a package by path in the transitive imports of pkg
// (or pkg itself), for AllPackageFacts' Package field.
func findImported(pkg *types.Package, path string) *types.Package {
	if pkg.Path() == path {
		return pkg
	}
	seen := make(map[*types.Package]bool)
	var walk func(p *types.Package) *types.Package
	walk = func(p *types.Package) *types.Package {
		if seen[p] {
			return nil
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			if imp.Path() == path {
				return imp
			}
			if f := walk(imp); f != nil {
				return f
			}
		}
		return nil
	}
	return walk(pkg)
}
