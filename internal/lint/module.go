// Package lint is crossvet's zero-dependency static-analysis
// framework. It loads the module's packages with nothing but the
// standard library (go/parser + go/types, with the source importer
// resolving stdlib dependencies) and runs a suite of repo-specific
// analyzers, each encoding one cross-boundary contract the dynamic
// harness otherwise only assumes: determinism of the deterministic
// packages, obs-tracer threading at simulator boundaries, registry ↔
// classifier signature coverage, errors.Is discipline for foreign
// sentinels, and no exported internal API without a non-test caller. Findings are emitted in deterministic order with a
// sha256 report hash, following the same reproducibility conventions
// as the crossfuzz and crosspart reports: the linter obeys the
// contract it enforces.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module.
type Package struct {
	// ImportPath is the package's import path within the module.
	ImportPath string
	// Dir is the package directory on disk.
	Dir string
	// Files are the parsed non-test sources, in file-name order.
	Files []*ast.File
	// Types and Info carry the go/types results for the package.
	Types *types.Package
	Info  *types.Info
}

// Base returns the last import-path element (the package directory
// name, which for this module always matches the package name).
func (p *Package) Base() string {
	if i := strings.LastIndexByte(p.ImportPath, '/'); i >= 0 {
		return p.ImportPath[i+1:]
	}
	return p.ImportPath
}

// Module is a loaded module: every non-test package, type-checked,
// sharing one FileSet.
type Module struct {
	// Root is the absolute module root (the directory with go.mod).
	Root string
	// Path is the module path declared in go.mod.
	Path string
	// Fset is the shared position table.
	Fset *token.FileSet
	// Pkgs maps import path → package.
	Pkgs map[string]*Package
}

// SortedPackages returns the module packages in import-path order —
// the canonical analysis order.
func (m *Module) SortedPackages() []*Package {
	out := make([]*Package, 0, len(m.Pkgs))
	for _, p := range m.Pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out
}

// Rel renders a position as a root-relative, slash-separated
// file:line:col string — the deterministic coordinate used in reports.
func (m *Module) Rel(pos token.Pos) (string, int, int) {
	p := m.Fset.Position(pos)
	rel, err := filepath.Rel(m.Root, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	return filepath.ToSlash(rel), p.Line, p.Column
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// FindModuleRoot walks up from dir to the nearest directory holding a
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// LoadModule parses and type-checks every non-test package under root.
// Directories named "testdata", hidden directories, and _test.go files
// are skipped, matching the go tool's build rules. Loading is fully
// deterministic: directories and files are visited in sorted order.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: %s is not a module root: %w", root, err)
	}
	m := &Module{
		Root: root,
		Path: modulePath(gomod),
		Fset: token.NewFileSet(),
		Pkgs: make(map[string]*Package),
	}
	if m.Path == "" {
		return nil, fmt.Errorf("lint: no module path in %s/go.mod", root)
	}

	// Discover package directories.
	dirs := map[string]string{} // import path → dir
	err = filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			base := filepath.Base(p)
			if p != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			dir := filepath.Dir(p)
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				return err
			}
			ip := m.Path
			if rel != "." {
				ip = m.Path + "/" + filepath.ToSlash(rel)
			}
			dirs[ip] = dir
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	ld := &loader{m: m, dirs: dirs, loading: map[string]bool{}}
	ld.std, _ = importer.ForCompiler(m.Fset, "source", nil).(types.ImporterFrom)
	if ld.std == nil {
		return nil, fmt.Errorf("lint: source importer unavailable")
	}

	var ips []string
	for ip := range dirs {
		ips = append(ips, ip)
	}
	sort.Strings(ips)
	for _, ip := range ips {
		if _, err := ld.load(ip); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// loader type-checks module packages on demand, memoized, delegating
// imports outside the module to the stdlib source importer.
type loader struct {
	m       *Module
	dirs    map[string]string
	std     types.ImporterFrom
	loading map[string]bool
}

// Import implements types.Importer over the module + stdlib.
func (ld *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == ld.m.Path || strings.HasPrefix(path, ld.m.Path+"/") {
		p, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return ld.std.ImportFrom(path, ld.m.Root, 0)
}

// load parses and type-checks one module package.
func (ld *loader) load(ip string) (*Package, error) {
	if p, ok := ld.m.Pkgs[ip]; ok {
		return p, nil
	}
	if ld.loading[ip] {
		return nil, fmt.Errorf("lint: import cycle through %s", ip)
	}
	ld.loading[ip] = true
	defer delete(ld.loading, ip)

	dir, ok := ld.dirs[ip]
	if !ok {
		return nil, fmt.Errorf("lint: no package for import path %s", ip)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") && !strings.HasPrefix(n, ".") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(ld.m.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(ip, ld.m.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", ip, err)
	}
	p := &Package{ImportPath: ip, Dir: dir, Files: files, Types: tpkg, Info: info}
	ld.m.Pkgs[ip] = p
	return p, nil
}
