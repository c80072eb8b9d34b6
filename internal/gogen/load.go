// Package gogen is the real-workload front end: it generates inclusion
// constraints for Go source using only the standard library's go/ast,
// go/build and go/types (no x/tools), so every Go module — including this
// repository and the Go standard library — becomes an analysis input for
// the solver pipeline. The constraint model is field-insensitive v1 and is
// specified, rule by rule, in docs/GOFRONTEND.md; the generator and the
// spec are kept in lockstep by the golden tests in this package.
//
// The output is the same interchange the C front end (internal/cgen)
// emits: a constraint.Program plus a cgen.Unit with name tables, call
// sites and dereference sites, so the existing clients (CallGraph,
// ComputeModRef), the offline passes (HVN/HU/OVS/HCD), every solver, the
// parallel engine and the Session daemon all run unchanged.
package gogen

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Options configures the Go front end.
type Options struct {
	// Dir is a module root directory (a go.mod defines the module path).
	// With Dir set and Packages nil, every package under the module is
	// analyzed; with Packages set, only those module-internal or standard
	// library import paths are.
	Dir string
	// Packages lists import paths to analyze. Standard-library paths
	// resolve under GOROOT/src; with Dir set, paths under the module
	// path resolve inside the module. Ignored fields of the build
	// context (tags, cgo) follow defaults: cgo is disabled so the pure-Go
	// fallbacks of cgo packages are selected.
	Packages []string
	// IncludeTests, when set, also analyzes in-package _test.go files of
	// the target packages (external _test packages are not loaded).
	IncludeTests bool
}

// loadedPackage is one package of the import graph: what discovery found
// out about it, and, once done is closed, what typechecking made of it.
type loadedPackage struct {
	path   string
	target bool
	dir    string
	names  []string // Go files to parse, sorted
	// deps maps each import path to its package; a nil entry is an import
	// that closes a cycle, resolved as an error instead of waited for.
	deps map[string]*loadedPackage

	// Set by the package's own goroutine before done is closed.
	files []*ast.File // syntax of a target package; nil for a dependency
	info  *types.Info // type information of files
	pkg   *types.Package
	err   error    // the package could not be found, parsed or typechecked
	warns []string // its typecheck errors
	done  chan struct{}
}

// Import implements types.Importer for p's own typecheck. p's goroutine
// waits for every dependency before checking p, so only finished
// packages are read.
func (p *loadedPackage) Import(path string) (*types.Package, error) {
	d, ok := p.deps[path]
	switch {
	case !ok:
		return nil, fmt.Errorf("gogen: %s imports %q, which discovery did not find", p.path, path)
	case d == nil:
		return nil, fmt.Errorf("gogen: import cycle through %q", path)
	case d.err != nil:
		return nil, d.err
	}
	return d.pkg, nil
}

// loader parses and typechecks packages from source in two phases.
// discover walks the import graph from the targets with go/build; run then
// typechecks every package on its own goroutine once its imports are
// done, at most GOMAXPROCS at a time. Dependency packages are typechecked
// with IgnoreFuncBodies (the export-data role), target packages keep full
// type information, one types.Info per package.
type loader struct {
	fset    *token.FileSet
	ctxt    build.Context
	modPath string // module path of Dir ("" = no module)
	modDir  string
	targets map[string]bool
	tests   bool
	pkgs    map[string]*loadedPackage
	order   []*loadedPackage // discovery post-order: imports first
	warns   []string
}

func newLoader(o Options) (*loader, error) {
	ctxt := build.Default
	// Cgo files cannot be typechecked from source; selecting the pure-Go
	// fallbacks keeps the whole standard library loadable.
	ctxt.CgoEnabled = false
	l := &loader{
		fset:    token.NewFileSet(),
		ctxt:    ctxt,
		targets: map[string]bool{},
		tests:   o.IncludeTests,
		pkgs:    map[string]*loadedPackage{},
	}
	if o.Dir != "" {
		dir, err := filepath.Abs(o.Dir)
		if err != nil {
			return nil, err
		}
		mod, err := modulePath(dir)
		if err != nil {
			return nil, err
		}
		l.modPath, l.modDir = mod, dir
	}
	return l, nil
}

// modulePath reads the module path out of dir/go.mod.
func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("gogen: %s is not a module root: %w", dir, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			mod := strings.TrimSpace(strings.Trim(strings.TrimSpace(rest), `"`))
			if mod != "" {
				return mod, nil
			}
		}
	}
	return "", fmt.Errorf("gogen: no module line in %s/go.mod", dir)
}

// targetPaths resolves the import paths to analyze: the explicit Packages
// list, or (with Dir and no list) every package directory under the module.
func (l *loader) targetPaths(o Options) ([]string, error) {
	if len(o.Packages) > 0 {
		paths := append([]string(nil), o.Packages...)
		sort.Strings(paths)
		return paths, nil
	}
	if l.modDir == "" {
		return nil, fmt.Errorf("gogen: no module directory and no package list")
	}
	var paths []string
	err := filepath.WalkDir(l.modDir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.modDir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if _, err := l.ctxt.ImportDir(p, 0); err != nil {
			return nil // no buildable Go files here (or multiple packages): skip
		}
		rel, err := filepath.Rel(l.modDir, p)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.modPath)
		} else {
			paths = append(paths, l.modPath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// dirFor maps an import path to its source directory: module-internal
// paths resolve inside the module, anything else under GOROOT/src.
func (l *loader) dirFor(path string) (string, error) {
	if l.modPath != "" {
		if path == l.modPath {
			return l.modDir, nil
		}
		if rest, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
			return filepath.Join(l.modDir, filepath.FromSlash(rest)), nil
		}
	}
	bp, err := l.ctxt.Import(path, "", build.FindOnly)
	if err != nil {
		// The standard library vendors its golang.org/x dependencies
		// under GOROOT/src/vendor.
		if bp, err2 := l.ctxt.Import("vendor/"+path, "", build.FindOnly); err2 == nil {
			return bp.Dir, nil
		}
		return "", fmt.Errorf("gogen: cannot resolve import %q: %w", path, err)
	}
	return bp.Dir, nil
}

// discover adds the package at path and, depth first, everything it
// imports to the graph, appending each package to l.order after its
// imports. stack holds the packages on the current walk: an import of one
// of them closes a cycle and becomes a nil dependency, so no package
// waits for a package that waits for it. A package that cannot be found
// keeps its error and imports nothing; its importers see the error when
// they typecheck, as a warning, and Compile fails on it only for a target.
func (l *loader) discover(path string, stack map[string]bool) *loadedPackage {
	p := &loadedPackage{path: path, target: l.targets[path], done: make(chan struct{})}
	l.pkgs[path] = p
	defer func() { l.order = append(l.order, p) }()
	if path == "unsafe" {
		p.pkg = types.Unsafe
		return p
	}
	dir, err := l.dirFor(path)
	if err != nil {
		p.err = err
		return p
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		p.err = fmt.Errorf("gogen: %s: %w", path, err)
		return p
	}
	p.dir = dir
	p.names = append([]string(nil), bp.GoFiles...)
	imports := bp.Imports
	if p.target && l.tests {
		p.names = append(p.names, bp.TestGoFiles...)
		imports = append(append([]string(nil), imports...), bp.TestImports...)
	}
	sort.Strings(p.names)
	l.discoverImports(p, imports, stack)
	return p
}

// discoverImports resolves p's import paths to packages, discovering the
// ones not seen yet.
func (l *loader) discoverImports(p *loadedPackage, imports []string, stack map[string]bool) {
	stack[p.path] = true
	defer delete(stack, p.path)
	p.deps = make(map[string]*loadedPackage, len(imports))
	for _, imp := range imports {
		switch d, seen := l.pkgs[imp]; {
		case imp == "C":
			// FakeImportC: the typechecker never asks for "C".
		case stack[imp]:
			p.deps[imp] = nil
		case seen:
			p.deps[imp] = d
		default:
			p.deps[imp] = l.discover(imp, stack)
		}
	}
}

// run typechecks every discovered package and returns once all are done.
// Each package gets a goroutine that waits for its imports, then parses
// and checks the package inside one of GOMAXPROCS semaphore slots, so a
// dependency's syntax is live only while it holds a slot. A package's
// imports precede it in l.order and cycles were cut during discovery, so
// every wait ends. The warnings are then concatenated in l.order, which
// no schedule changes.
func (l *loader) run() {
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, p := range l.order {
		if p.pkg != nil || p.err != nil {
			close(p.done) // unsafe, or not found: nothing to check
			continue
		}
		go func() {
			defer close(p.done)
			for _, d := range p.deps {
				if d != nil {
					<-d.done
				}
			}
			sem <- struct{}{}
			l.check(p)
			<-sem
		}()
	}
	for _, p := range l.order {
		<-p.done
		for _, w := range p.warns {
			if len(l.warns) < maxWarnings {
				l.warns = append(l.warns, w)
			}
		}
	}
}

// check parses p's files after any already parsed and typechecks them.
// Target packages are typechecked with bodies and full info; dependencies
// skip function bodies (go/types still resolves their declarations, the
// export-data role). Only a target keeps its syntax trees: the generator
// walks nothing else, so a dependency's trees are garbage once it is
// typechecked instead of staying live, with every other package's, until
// the compile returns.
func (l *loader) check(p *loadedPackage) {
	files := p.files
	for _, name := range p.names {
		f, err := parser.ParseFile(l.fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			p.err = fmt.Errorf("gogen: parsing %s: %w", name, err)
			return
		}
		files = append(files, f)
	}
	info := (*types.Info)(nil)
	if p.target {
		info = newInfo()
	}
	conf := types.Config{
		Importer:         p,
		FakeImportC:      true,
		IgnoreFuncBodies: !p.target,
		// Typechecking is lenient: real code bases (and the standard
		// library under a foreign build configuration) can produce
		// harmless errors; the generator treats expressions without type
		// information conservatively. Errors are surfaced as warnings.
		Error: func(err error) {
			if len(p.warns) < maxWarnings {
				p.warns = append(p.warns, "typecheck: "+err.Error())
			}
		},
	}
	pkg, err := conf.Check(p.path, l.fset, files, info)
	if pkg == nil {
		p.err = fmt.Errorf("gogen: typechecking %s: %v", p.path, err)
		return
	}
	p.pkg = pkg
	if p.target {
		p.files, p.info = files, info
	}
}

// newInfo returns an empty record for the type information the generator
// reads.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// maxWarnings bounds the warning list on badly broken inputs.
const maxWarnings = 200

// loadSource typechecks a single in-memory file (for golden tests); its
// imports resolve against the standard library.
func (l *loader) loadSource(src string) (*loadedPackage, error) {
	f, err := parser.ParseFile(l.fset, "input.go", src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	path := f.Name.Name
	p := &loadedPackage{path: path, target: true, files: []*ast.File{f}, done: make(chan struct{})}
	l.pkgs[path] = p
	var imports []string
	for _, spec := range f.Imports {
		if imp, err := strconv.Unquote(spec.Path.Value); err == nil {
			imports = append(imports, imp)
		}
	}
	l.discoverImports(p, imports, map[string]bool{})
	l.order = append(l.order, p)
	l.run()
	if p.err != nil {
		return nil, p.err
	}
	return p, nil
}

// loadTargets parses and typechecks the requested packages and returns
// them in deterministic (sorted import path) order, each with its syntax
// and type information.
func (l *loader) loadTargets(o Options) ([]*loadedPackage, error) {
	paths, err := l.targetPaths(o)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("gogen: no packages to analyze")
	}
	for _, p := range paths {
		l.targets[p] = true
	}
	stack := map[string]bool{}
	for _, p := range paths {
		if _, seen := l.pkgs[p]; !seen {
			l.discover(p, stack)
		}
	}
	l.run()
	out := make([]*loadedPackage, len(paths))
	for i, p := range paths {
		out[i] = l.pkgs[p]
		if out[i].err != nil {
			return nil, out[i].err
		}
	}
	return out, nil
}
