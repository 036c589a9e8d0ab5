package dynamicrumor_test

// The structural guards of the module, checked over the type-checked
// production code (every non-test file `go list ./...` reports, plus the
// rumorbench module, which imports internal/* from its own go.mod):
//
//   - TestProductionCodeIsReachable: every top-level declaration and method
//     under internal/ is reachable from code outside internal/ (the public
//     rumor API, the commands, the examples and rumorbench). Code that only
//     tests reach is deleted or moved into a _test.go file.
//   - TestLayering: the simulation core never imports the service layers.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

const modulePath = "dynamicrumor"

// reachAllowlist names the internal declarations that stay although no
// production code reaches them. An entry is a package ("internal/<pkg>") or
// a declaration ("<pkg>.<Name>" or "<pkg>.<Type>.<Method>"). Keep it short:
// the right fix for a new finding is almost always to delete the code.
var reachAllowlist = map[string]string{
	"internal/statcheck":    "tier-2 statistical test support, driven by the statcheck and sim tests",
	"gen.RandomConnected":   "generator shared by the diligence, spectral and gen tests",
	"faults.Injector.Stats": "the determinism assertion in the faults tests",
}

// The simulation core must not depend on the layers that serve it.
var (
	corePackages    = []string{"graph", "gen", "dynamic", "sim", "xrand", "stats"}
	servingPackages = []string{"engine", "service", "cluster", "obs", "store"}
)

type loadedPackage struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

type program struct {
	fset *token.FileSet
	pkgs map[string]*loadedPackage // by import path, module packages only
}

var (
	loadOnce   sync.Once
	loaded     *program
	loadFailed error
)

// loadProgram type-checks the module's production packages once per test
// binary; the standard library comes from its export data.
func loadProgram(t *testing.T) *program {
	t.Helper()
	loadOnce.Do(func() { loaded, loadFailed = load() })
	if loadFailed != nil {
		t.Fatal(loadFailed)
	}
	return loaded
}

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
}

func goList(dir string, patterns ...string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json=ImportPath,Dir,GoFiles"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v in %s: %v\n%s", patterns, dir, err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("decode go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func load() (*program, error) {
	listed, err := goList(".", "./...")
	if err != nil {
		return nil, err
	}
	bench, err := goList("rumorbench", ".")
	if err != nil {
		return nil, err
	}
	sources := make(map[string]listedPackage)
	for _, p := range append(listed, bench...) {
		sources[p.ImportPath] = p
	}
	l := &loader{
		prog:    &program{fset: token.NewFileSet(), pkgs: make(map[string]*loadedPackage)},
		sources: sources,
		std:     importer.Default(),
	}
	for path := range sources {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}
	return l.prog, nil
}

// loader is a types.Importer that type-checks module packages from source,
// on demand and in dependency order, and defers everything else to std.
type loader struct {
	prog    *program
	sources map[string]listedPackage
	std     types.Importer
}

func (l *loader) Import(path string) (*types.Package, error) {
	if lp, ok := l.prog.pkgs[path]; ok {
		return lp.pkg, nil
	}
	src, ok := l.sources[path]
	if !ok {
		return l.std.Import(path)
	}
	lp := &loadedPackage{info: &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}}
	for _, name := range src.GoFiles {
		f, err := parser.ParseFile(l.prog.fset, filepath.Join(src.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		lp.files = append(lp.files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.prog.fset, lp.files, lp.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", path, err)
	}
	lp.pkg = pkg
	l.prog.pkgs[path] = lp
	return pkg, nil
}

func isInternal(path string) bool { return strings.HasPrefix(path, modulePath+"/internal/") }

func inModule(obj types.Object) bool {
	return obj.Pkg() != nil && (obj.Pkg().Path() == modulePath || strings.HasPrefix(obj.Pkg().Path(), modulePath+"/"))
}

// declName renders a declaration as <pkg>.<Name> or <pkg>.<Type>.<Method>.
func declName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := types.Unalias(t).(*types.Named); ok {
				return obj.Pkg().Name() + "." + n.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// origin maps a method of an instantiated type back to its declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// tracked reports whether obj is a module declaration the reachability
// graph has a node for: a package-level object or a method.
func tracked(obj types.Object) bool {
	if obj == nil || !inModule(obj) {
		return false
	}
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		return true
	}
	return obj.Parent() == obj.Pkg().Scope()
}

// reachability is the reference graph of the production code: a node per
// top-level declaration and method, an edge per identifier that uses one.
type reachability struct {
	decls  []types.Object // every tracked declaration, in source order
	edges  map[types.Object][]types.Object
	roots  []types.Object
	ifaces map[string][]*types.Interface // by method name
}

func (r *reachability) refs(n ast.Node, info *types.Info) []types.Object {
	var out []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; tracked(obj) {
				out = append(out, origin(obj))
			}
		}
		return true
	})
	return out
}

func buildReachability(prog *program) *reachability {
	r := &reachability{edges: make(map[types.Object][]types.Object), ifaces: make(map[string][]*types.Interface)}
	paths := make([]string, 0, len(prog.pkgs))
	for path := range prog.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		lp := prog.pkgs[path]
		for _, f := range lp.files {
			for _, d := range f.Decls {
				r.addDecl(d, lp.info, !isInternal(path))
			}
		}
	}
	r.collectInterfaces(prog)
	r.roots = append(r.roots, apiMethods(prog)...)
	return r
}

// addDecl records the nodes a declaration defines and the edges out of
// them. Declarations outside internal/, init funcs and blank identifiers
// are roots; a root without an object of its own roots what it uses.
func (r *reachability) addDecl(d ast.Decl, info *types.Info, root bool) {
	add := func(obj types.Object, n ast.Node) {
		refs := r.refs(n, info)
		if obj == nil {
			r.roots = append(r.roots, refs...)
			return
		}
		// A const's type may be implicit (iota repetition), so link it.
		if n, ok := types.Unalias(obj.Type()).(*types.Named); ok && tracked(n.Obj()) {
			refs = append(refs, n.Obj())
		}
		r.decls = append(r.decls, obj)
		r.edges[obj] = append(r.edges[obj], refs...)
		if root {
			r.roots = append(r.roots, obj)
		}
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil && d.Name.Name == "init" {
			add(nil, d)
			return
		}
		add(info.Defs[d.Name], d)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				add(info.Defs[s.Name], s)
			case *ast.ValueSpec:
				for _, name := range s.Names {
					if name.Name == "_" {
						add(nil, s)
					} else {
						add(info.Defs[name], s)
					}
				}
			}
		}
	}
}

// collectInterfaces indexes every interface the program can see: named ones
// in module and standard-library scopes, and any written inline in the
// module. A method that satisfies one may be called through it.
func (r *reachability) collectInterfaces(prog *program) {
	seen := make(map[*types.Interface]bool)
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] || !it.IsMethodSet() || it.NumMethods() == 0 {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			r.ifaces[name] = append(r.ifaces[name], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	visited := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !isGeneric(tn.Type()) {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, lp := range prog.pkgs {
		walk(lp.pkg)
		for _, tv := range lp.info.Types {
			if tv.IsType() && !isGeneric(tv.Type) {
				addIface(tv.Type)
			}
		}
	}
}

func isGeneric(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.TypeParams().Len() > 0 && n.TypeArgs().Len() == 0
}

// assertedMethods are called by the standard library through unnamed
// interfaces (errors.Is/As/Unwrap, http.ResponseController), which export
// data does not show.
var assertedMethods = map[string]bool{"Unwrap": true, "Is": true, "As": true}

// implementsInterface reports whether method m of named type n is one that
// some interface declares and n (or *n) satisfies.
func (r *reachability) implementsInterface(n *types.Named, m *types.Func) bool {
	if assertedMethods[m.Name()] {
		return true
	}
	for _, it := range r.ifaces[m.Name()] {
		if types.Implements(n, it) || types.Implements(types.NewPointer(n), it) {
			return true
		}
	}
	return false
}

// live walks the graph from the roots. A live type makes live the methods
// an interface may call; every other method needs a reference of its own.
func (r *reachability) live() map[types.Object]bool {
	live := make(map[types.Object]bool)
	queue := append([]types.Object(nil), r.roots...)
	for len(queue) > 0 {
		obj := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if live[obj] {
			continue
		}
		live[obj] = true
		queue = append(queue, r.edges[obj]...)
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok && !isGeneric(n) {
				for i := 0; i < n.NumMethods(); i++ {
					if m := n.Method(i); r.implementsInterface(n, m) {
						queue = append(queue, m)
					}
				}
			}
		}
	}
	return live
}

// apiMethods returns the exported methods a user of package rumor can call:
// methods of module types the rumor API hands out, whose parameters the
// user can supply.
func apiMethods(prog *program) []types.Object {
	rumor := prog.pkgs[modulePath+"/rumor"].pkg
	obtainable := make(map[*types.TypeName]bool)
	type visit struct {
		t   types.Type
		out bool
	}
	seen := make(map[visit]bool)
	// walk follows the types a value of type t exposes; out is false in
	// parameter position, where the user supplies values instead.
	var walk func(t types.Type, out bool)
	walk = func(t types.Type, out bool) {
		if seen[visit{t, out}] {
			return
		}
		seen[visit{t, out}] = true
		switch t := t.(type) {
		case *types.Alias:
			walk(types.Unalias(t), out)
		case *types.Named:
			if out && inModule(t.Obj()) {
				obtainable[t.Origin().Obj()] = true
				for i := 0; i < t.NumMethods(); i++ {
					if m := t.Method(i); m.Exported() {
						walk(m.Type(), true)
					}
				}
			}
			walk(t.Underlying(), out)
		case *types.Pointer:
			walk(t.Elem(), out)
		case *types.Slice:
			walk(t.Elem(), out)
		case *types.Array:
			walk(t.Elem(), out)
		case *types.Chan:
			walk(t.Elem(), out)
		case *types.Map:
			walk(t.Key(), out)
			walk(t.Elem(), out)
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() {
					walk(f.Type(), out)
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					walk(m.Type(), out)
				}
			}
		case *types.Signature:
			for i := 0; i < t.Params().Len(); i++ {
				walk(t.Params().At(i).Type(), !out)
			}
			for i := 0; i < t.Results().Len(); i++ {
				walk(t.Results().At(i).Type(), out)
			}
		}
	}
	for _, name := range rumor.Scope().Names() {
		if obj := rumor.Scope().Lookup(name); obj.Exported() {
			walk(obj.Type(), true)
		}
	}
	// suppliable reports whether a user can pass a value of type t.
	var suppliable func(t types.Type) bool
	suppliable = func(t types.Type) bool {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			return !inModule(t.Obj()) || obtainable[t.Origin().Obj()]
		case *types.Pointer:
			return suppliable(t.Elem())
		case *types.Slice:
			return suppliable(t.Elem())
		case *types.Array:
			return suppliable(t.Elem())
		case *types.Map:
			return suppliable(t.Key()) && suppliable(t.Elem())
		}
		return true
	}
	var methods []types.Object
	for tn := range obtainable {
		n, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
	next:
		for i := 0; i < n.NumMethods(); i++ {
			m := n.Method(i)
			if !m.Exported() {
				continue
			}
			params := m.Signature().Params()
			for j := 0; j < params.Len(); j++ {
				if !suppliable(params.At(j).Type()) {
					continue next
				}
			}
			methods = append(methods, m)
		}
	}
	return methods
}

// allowlistKey returns the reachAllowlist entry covering obj, or "".
func allowlistKey(obj types.Object) string {
	pkg := "internal/" + strings.TrimPrefix(obj.Pkg().Path(), modulePath+"/internal/")
	for _, key := range []string{pkg, declName(obj)} {
		if _, ok := reachAllowlist[key]; ok {
			return key
		}
	}
	return ""
}

func TestProductionCodeIsReachable(t *testing.T) {
	if len(reachAllowlist) > 4 {
		t.Fatalf("reachAllowlist has %d entries; at most 4 are allowed", len(reachAllowlist))
	}
	prog := loadProgram(t)
	r := buildReachability(prog)
	// An allowlist entry earns its place only while it covers something the
	// production roots alone do not reach.
	needed := make(map[string]bool)
	live := r.live()
	for _, obj := range r.decls {
		if isInternal(obj.Pkg().Path()) && allowlistKey(obj) != "" {
			r.roots = append(r.roots, obj)
			if !live[obj] {
				needed[allowlistKey(obj)] = true
			}
		}
	}
	for entry := range reachAllowlist {
		if !needed[entry] {
			t.Errorf("reachAllowlist entry %q covers no test-only declaration; remove it", entry)
		}
	}
	live = r.live()
	var dead []string
	for _, obj := range r.decls {
		if live[obj] || !isInternal(obj.Pkg().Path()) {
			continue
		}
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Signature().Recv(); recv != nil {
				rt := recv.Type()
				if p, ok := rt.(*types.Pointer); ok {
					rt = p.Elem()
				}
				if n, ok := rt.(*types.Named); ok && !isGeneric(n) && r.implementsInterface(n, fn) {
					continue // reported through its type, if that is dead
				}
			}
		}
		dead = append(dead, fmt.Sprintf("%s (%s)", declName(obj), prog.fset.Position(obj.Pos())))
	}
	if len(dead) > 0 {
		t.Errorf("%d internal declarations are reachable only from tests (delete them, or move test references into a _test.go file):\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

func TestLayering(t *testing.T) {
	prog := loadProgram(t)
	internal := func(name string) string { return modulePath + "/internal/" + name }
	forbidden := make(map[string]bool)
	for _, name := range servingPackages {
		forbidden[internal(name)] = true
	}
	for _, name := range corePackages {
		lp, ok := prog.pkgs[internal(name)]
		if !ok {
			t.Errorf("core package %s not found", internal(name))
			continue
		}
		// Walk the transitive imports, remembering one path to each.
		via := map[string]string{lp.pkg.Path(): ""}
		queue := []*types.Package{lp.pkg}
		for len(queue) > 0 {
			p := queue[0]
			queue = queue[1:]
			for _, imp := range p.Imports() {
				if _, ok := via[imp.Path()]; ok {
					continue
				}
				via[imp.Path()] = p.Path()
				queue = append(queue, imp)
				if forbidden[imp.Path()] {
					chain := []string{imp.Path()}
					for at := p.Path(); at != ""; at = via[at] {
						chain = append([]string{at}, chain...)
					}
					t.Errorf("core package %s imports serving package %s: %s",
						name, imp.Path(), strings.Join(chain, " -> "))
				}
			}
		}
	}
}
