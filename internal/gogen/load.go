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
	"sort"
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

// loadedPackage is one typechecked package.
type loadedPackage struct {
	path   string
	files  []*ast.File // syntax of a target package; nil for a dependency
	info   *types.Info // type information of files
	pkg    *types.Package
	target bool
}

// loader parses and typechecks packages from source, caching by import
// path. It implements types.Importer: dependency packages are typechecked
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
	loading map[string]bool
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
		loading: map[string]bool{},
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

// Import implements types.Importer for dependency resolution during
// typechecking.
func (l *loader) Import(path string) (*types.Package, error) {
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

// load parses and typechecks one package (cached). Target packages are
// typechecked with bodies and full info; dependencies skip function bodies
// (go/types still resolves their declarations, the export-data role).
// Only a target keeps its syntax trees: the generator walks nothing else,
// so a dependency's trees are garbage once it is typechecked instead of
// staying live, with every other package's, until the compile returns.
func (l *loader) load(path string) (*loadedPackage, error) {
	if path == "unsafe" {
		return &loadedPackage{path: path, pkg: types.Unsafe}, nil
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("gogen: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("gogen: %s: %w", path, err)
	}
	target := l.targets[path]
	names := append([]string(nil), bp.GoFiles...)
	if target && l.tests {
		names = append(names, bp.TestGoFiles...)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("gogen: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := (*types.Info)(nil)
	if target {
		info = newInfo()
	}
	conf := types.Config{
		Importer:         l,
		FakeImportC:      true,
		IgnoreFuncBodies: !target,
		// Typechecking is lenient: real code bases (and the standard
		// library under a foreign build configuration) can produce
		// harmless errors; the generator treats expressions without type
		// information conservatively. Errors are surfaced as warnings.
		Error: func(err error) {
			if len(l.warns) < maxWarnings {
				l.warns = append(l.warns, "typecheck: "+err.Error())
			}
		},
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if pkg == nil {
		return nil, fmt.Errorf("gogen: typechecking %s: %v", path, err)
	}
	p := &loadedPackage{path: path, pkg: pkg, target: target}
	if target {
		p.files, p.info = files, info
	}
	l.pkgs[path] = p
	return p, nil
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
	l.targets[path] = true
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error: func(err error) {
			if len(l.warns) < maxWarnings {
				l.warns = append(l.warns, "typecheck: "+err.Error())
			}
		},
	}
	info := newInfo()
	pkg, err := conf.Check(path, l.fset, []*ast.File{f}, info)
	if pkg == nil {
		return nil, fmt.Errorf("gogen: typechecking: %v", err)
	}
	p := &loadedPackage{path: path, files: []*ast.File{f}, info: info, pkg: pkg, target: true}
	l.pkgs[path] = p
	return p, nil
}

// Load parses and typechecks the requested packages and returns them in
// deterministic (sorted import path) order, each with its syntax and type
// information.
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
	var out []*loadedPackage
	for _, p := range paths {
		lp, err := l.load(p)
		if err != nil {
			return nil, err
		}
		out = append(out, lp)
	}
	return out, nil
}
