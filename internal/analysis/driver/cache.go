// Fact-store caching for the standalone driver.
//
// A Cache is a content-addressed, per-package store of analysis results:
// the diagnostics the suite reported while analyzing one package, plus the
// facts that package exported for its importers. On a warm run the driver
// still parses and type-checks every package (facts attach to *types.Object
// identities, so a typechecked universe must exist), but a package whose key
// matches skips every analyzer: its cached diagnostics are replayed through
// the normal sink and its cached facts are decoded back into the fact store,
// where downstream cache-miss packages import them exactly as if the
// analyzers had just run.
//
// The key must capture everything a diagnostic or fact can depend on:
//
//   - the analyzer binary itself (a sha256 of the running executable — any
//     rule change, new waiver semantics, or driver fix reshapes results, and
//     hashing the binary is the one key that cannot go stale);
//   - the toolchain version (standard-library facts and type identities);
//   - the set of root analyzers by name;
//   - the package's own source files, byte for byte — which also covers
//     //skipit:ignore and //skipit:hotpath directives, since they live in
//     those bytes;
//   - the keys of every non-standard dependency, so a fact change deep in
//     the tree re-keys every importer transitively (the whack-a-mole
//     property: waiving a callee site re-seeds importer summaries, and this
//     dependency closure is what invalidates them).
//
// Entries are JSON files named <key>.json under the cache directory. Facts
// are gob-encoded (the go/analysis serializability contract) and bound to
// objects via golang.org/x/tools/go/types/objectpath, which names exactly
// the objects visible to importers; facts on function-local objects have no
// cross-package meaning and are not stored (a hit skips the whole package,
// so nothing reads them). All skipit fact types carry witness chains as
// pre-rendered strings, never token.Pos, so decoded facts are position-safe
// in a fresh process.
package driver

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/objectpath"
)

// cacheFormatVersion invalidates every entry when the on-disk shape changes.
const cacheFormatVersion = "skipit-vet-cache-v1"

// Cache is a directory of per-package analysis results. The zero value is
// not usable; Dir must name a directory (created on first store).
type Cache struct {
	Dir string
}

// cacheEntry is one package's stored results.
type cacheEntry struct {
	Package  string         `json:"package"` // go list ImportPath, for humans
	Diags    []cacheDiag    `json:"diags,omitempty"`
	PkgFacts []cacheFact    `json:"pkg_facts,omitempty"`
	ObjFacts []cacheObjFact `json:"obj_facts,omitempty"`
}

// cacheDiag is one replayable diagnostic, position pre-resolved.
type cacheDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// cacheFact is one gob-encoded package fact.
type cacheFact struct {
	Type string `json:"type"` // fact type's package path + "." + name
	Data []byte `json:"data"` // gob of the fact struct value
}

// cacheObjFact is one gob-encoded object fact, keyed by objectpath.
type cacheObjFact struct {
	Object string `json:"object"` // objectpath within the package
	Type   string `json:"type"`
	Data   []byte `json:"data"`
}

// exeSum hashes the running binary once; the analyzers are compiled into it,
// so this digest moves whenever any analyzer (or the driver) changes.
var exeSum = sync.OnceValue(func() string {
	exe, err := os.Executable()
	if err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			sum := sha256.Sum256(data)
			return hex.EncodeToString(sum[:])
		}
	}
	// No readable executable (unusual): fall back to a per-process random
	// key component would defeat caching entirely; the toolchain version at
	// least keeps same-toolchain runs sharing entries. Conservative enough:
	// the analyzer set names still participate in the key.
	return "no-exe"
})

// key computes the package's cache key. depKeys maps already-keyed package
// IDs (every non-standard dependency appears there: the driver walks in
// dependency order). File reads go through the same paths the loader parsed.
func (c *Cache) key(p *Package, analyzers []*analysis.Analyzer, depKeys map[string]string) (string, error) {
	h := sha256.New()
	fmt.Fprintln(h, cacheFormatVersion)
	fmt.Fprintln(h, exeSum())
	fmt.Fprintln(h, runtime.Version())
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	sort.Strings(names)
	fmt.Fprintln(h, strings.Join(names, ","))
	fmt.Fprintln(h, p.ID)
	for _, f := range p.GoFiles {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", fmt.Errorf("cache key for %s: %v", p.ID, err)
		}
		fmt.Fprintf(h, "file %s %d\n", filepath.Base(f), len(data))
		h.Write(data)
	}
	var deps []string
	for _, imp := range p.imports {
		id := imp
		if m, ok := p.importMap[imp]; ok {
			id = m
		}
		if k, ok := depKeys[id]; ok {
			deps = append(deps, id+"="+k)
		}
		// Standard-library imports have no entry; runtime.Version() above
		// stands in for their content.
	}
	sort.Strings(deps)
	for _, d := range deps {
		fmt.Fprintln(h, "dep", d)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (c *Cache) path(key string) string { return filepath.Join(c.Dir, key+".json") }

// load reads the entry for key, reporting ok=false on any miss or decode
// failure (a corrupt entry behaves as a miss and is overwritten).
func (c *Cache) load(key string) (*cacheEntry, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	e := new(cacheEntry)
	if err := json.Unmarshal(data, e); err != nil {
		return nil, false
	}
	return e, true
}

// store writes the entry atomically (rename over a temp file) so a crashed
// run never leaves a torn entry for a valid key.
func (c *Cache) store(key string, e *cacheEntry) error {
	if err := os.MkdirAll(c.Dir, 0o777); err != nil {
		return err
	}
	data, err := json.MarshalIndent(e, "", "\t")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.Dir, "tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), c.path(key))
}

// factRegistry maps serialized fact-type names to their reflect types, for
// every fact type any analyzer in the suite (or its requirements) declares.
func factRegistry(analyzers []*analysis.Analyzer) map[string]reflect.Type {
	reg := make(map[string]reflect.Type)
	seen := make(map[*analysis.Analyzer]bool)
	var walk func(a *analysis.Analyzer)
	walk = func(a *analysis.Analyzer) {
		if seen[a] {
			return
		}
		seen[a] = true
		for _, f := range a.FactTypes {
			t := reflect.TypeOf(f) // always a pointer per the analysis contract
			reg[factTypeName(t)] = t
		}
		for _, req := range a.Requires {
			walk(req)
		}
	}
	for _, a := range analyzers {
		walk(a)
	}
	return reg
}

// factTypeName names a fact's concrete type portably: the pointed-to
// struct's package path plus type name.
func factTypeName(t reflect.Type) string {
	e := t.Elem()
	return e.PkgPath() + "." + e.Name()
}

// encodeFact gobs the fact's struct value (not the interface, so no gob type
// registration is needed anywhere).
func encodeFact(f analysis.Fact) ([]byte, error) {
	var buf strings.Builder
	if err := gob.NewEncoder(&buf).EncodeValue(reflect.ValueOf(f).Elem()); err != nil {
		return nil, err
	}
	return []byte(buf.String()), nil
}

// decodeFact rebuilds a fact of type t (a pointer type) from gob bytes.
func decodeFact(t reflect.Type, data []byte) (analysis.Fact, error) {
	v := reflect.New(t.Elem())
	if err := gob.NewDecoder(strings.NewReader(string(data))).DecodeValue(v); err != nil {
		return nil, err
	}
	return v.Interface().(analysis.Fact), nil
}

// snapshot extracts the facts p's analysis exported — package facts under
// p's path and object facts on p's own package-level objects — into e.
// Objects with no objectpath (function-local) are skipped: a future hit
// skips the whole package, so nothing can ask for them.
func (s *factStore) snapshot(p *Package, e *cacheEntry) error {
	pkgFacts := s.pkgFacts[p.PkgPath]
	types := make([]string, 0, len(pkgFacts))
	byName := make(map[string]analysis.Fact, len(pkgFacts))
	for t, f := range pkgFacts {
		n := factTypeName(t)
		types = append(types, n)
		byName[n] = f
	}
	sort.Strings(types)
	for _, n := range types {
		data, err := encodeFact(byName[n])
		if err != nil {
			return fmt.Errorf("package fact %s: %v", n, err)
		}
		e.PkgFacts = append(e.PkgFacts, cacheFact{Type: n, Data: data})
	}

	for obj, m := range s.objFacts {
		if obj.Pkg() != p.Types {
			continue
		}
		path, err := objectpath.For(obj)
		if err != nil {
			continue // local object; invisible to importers
		}
		for t, f := range m {
			data, err := encodeFact(f)
			if err != nil {
				return fmt.Errorf("object fact %s on %s: %v", factTypeName(t), obj.Name(), err)
			}
			e.ObjFacts = append(e.ObjFacts, cacheObjFact{
				Object: string(path), Type: factTypeName(t), Data: data,
			})
		}
	}
	sort.Slice(e.ObjFacts, func(i, j int) bool {
		a, b := e.ObjFacts[i], e.ObjFacts[j]
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Type < b.Type
	})
	return nil
}

// restore decodes e's facts into the store against p's typechecked objects.
// Any failure poisons the hit: the caller falls back to running the
// analyzers live (an entry from a different binary or a renamed object must
// not half-apply).
func (s *factStore) restore(p *Package, e *cacheEntry, reg map[string]reflect.Type) error {
	for _, cf := range e.PkgFacts {
		t, ok := reg[cf.Type]
		if !ok {
			return fmt.Errorf("unknown fact type %s", cf.Type)
		}
		f, err := decodeFact(t, cf.Data)
		if err != nil {
			return fmt.Errorf("package fact %s: %v", cf.Type, err)
		}
		m := s.pkgFacts[p.PkgPath]
		if m == nil {
			m = make(map[reflect.Type]analysis.Fact)
			s.pkgFacts[p.PkgPath] = m
		}
		m[t] = f
	}
	for _, of := range e.ObjFacts {
		t, ok := reg[of.Type]
		if !ok {
			return fmt.Errorf("unknown fact type %s", of.Type)
		}
		obj, err := objectpath.Object(p.Types, objectpath.Path(of.Object))
		if err != nil {
			return fmt.Errorf("object %s: %v", of.Object, err)
		}
		f, err := decodeFact(t, of.Data)
		if err != nil {
			return fmt.Errorf("object fact %s on %s: %v", of.Type, of.Object, err)
		}
		m := s.objFacts[obj]
		if m == nil {
			m = make(map[reflect.Type]analysis.Fact)
			s.objFacts[obj] = m
		}
		m[t] = f
	}
	return nil
}
