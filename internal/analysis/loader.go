package analysis

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

// Package is one loaded, type-checked package.
type Package struct {
	// ImportPath is the package's import path within the module
	// (e.g. "nvbench/internal/ast").
	ImportPath string
	// Dir is the absolute directory the files were read from.
	Dir  string
	Fset *token.FileSet
	// Files holds the parsed source files, sorted by file name.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module from source. Imports
// of other module packages resolve back into the module directory; every
// other import resolves into GOROOT/src (with the stdlib vendor directory as
// fallback), so the loader needs no compiled export data and no tooling
// outside the standard library. Cgo is disabled when selecting files, which
// keeps the whole standard library type-checkable from source.
type Loader struct {
	Fset *token.FileSet
	// ModPath and ModDir identify the module whose packages are loaded.
	ModPath string
	ModDir  string

	ctxt    build.Context
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader creates a loader for the module rooted at or above dir (the
// nearest ancestor containing go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modDir := abs
	for {
		if _, err := os.Stat(filepath.Join(modDir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(modDir)
		if parent == modDir {
			return nil, fmt.Errorf("analysis: no go.mod found at or above %s", abs)
		}
		modDir = parent
	}
	modPath, err := modulePath(filepath.Join(modDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	return NewAdHocLoader(modDir, modPath), nil
}

// NewAdHocLoader creates a loader that treats dir as the root of a module
// named modPath without requiring a go.mod file. It is used by the
// analysistest harness to load fixture packages under arbitrary synthetic
// import paths.
func NewAdHocLoader(dir, modPath string) *Loader {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return &Loader{
		Fset:    token.NewFileSet(),
		ModPath: modPath,
		ModDir:  dir,
		ctxt:    ctxt,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(file string) (string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", file)
}

// Load resolves package patterns relative to the module root and returns the
// matched packages, type-checked, sorted by import path. Supported patterns:
// "./..." (every package under the module), "./dir/..." (every package under
// dir) and "./dir" (one package). Directories named testdata or vendor,
// hidden directories, and nested modules (any directory below the module
// root holding its own go.mod) are skipped, as the go tool does.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	paths, err := l.expandPatterns(patterns)
	if err != nil {
		return nil, err
	}
	out := make([]*Package, 0, len(paths))
	for _, path := range paths {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// Deps returns the module packages that pkgs import, directly or
// transitively, and that pkgs do not hold themselves, sorted by import
// path. Loading pkgs type-checked all of them already, so Deps parses
// nothing; it only walks the import graph.
func (l *Loader) Deps(pkgs []*Package) []*Package {
	seen := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		seen[p.ImportPath] = true
	}
	var out []*Package
	var visit func(p *Package)
	visit = func(p *Package) {
		for _, imp := range p.Types.Imports() {
			dep, ok := l.pkgs[imp.Path()]
			if !ok || seen[imp.Path()] || !l.inModule(imp.Path()) {
				continue
			}
			seen[imp.Path()] = true
			out = append(out, dep)
			visit(dep)
		}
	}
	for _, p := range pkgs {
		visit(p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out
}

// expandPatterns resolves package patterns to the sorted import paths they
// match, without parsing anything.
func (l *Loader) expandPatterns(patterns []string) ([]string, error) {
	dirs := map[string]bool{}
	for _, pat := range patterns {
		switch {
		case pat == "all" || pat == "...":
			pat = "./..."
			fallthrough
		case strings.HasSuffix(pat, "/..."):
			root := filepath.Join(l.ModDir, strings.TrimSuffix(pat, "/..."))
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != l.ModDir {
					return filepath.SkipDir // a nested module is not part of this one
				}
				if l.hasGoFiles(path) {
					dirs[path] = true
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		default:
			dir := filepath.Join(l.ModDir, pat)
			if !l.hasGoFiles(dir) {
				return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
			}
			dirs[dir] = true
		}
	}
	paths := make([]string, 0, len(dirs))
	for dir := range dirs {
		rel, err := filepath.Rel(l.ModDir, dir)
		if err != nil {
			return nil, err
		}
		paths = append(paths, importPathJoin(l.ModPath, rel))
	}
	sort.Strings(paths)
	return paths, nil
}

// LoadDir type-checks the single package in dir under the given import
// path. Unlike Load, dir need not be inside the module directory. Repeat
// calls for an already-loaded import path return the cached package, so
// harnesses can share one loader (and its type-checked stdlib) across
// many runs.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	pkg, err := l.loadDir(abs, importPath)
	if err != nil {
		return nil, err
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

func importPathJoin(mod, rel string) string {
	if rel == "." || rel == "" {
		return mod
	}
	return mod + "/" + filepath.ToSlash(rel)
}

// hasGoFiles reports whether dir contains at least one buildable,
// non-test Go file.
func (l *Loader) hasGoFiles(dir string) bool {
	bp, err := l.ctxt.ImportDir(dir, 0)
	return err == nil && len(bp.GoFiles) > 0
}

// load returns the type-checked package for an import path, using the cache
// and detecting cycles.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	dir, err := l.resolveDir(path)
	if err != nil {
		return nil, err
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	pkg, err := l.loadDir(dir, path)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// inModule reports whether an import path names a package of the module.
func (l *Loader) inModule(path string) bool {
	return path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/")
}

// resolveDir maps an import path to a source directory: module packages into
// ModDir, everything else into GOROOT/src with the stdlib vendor tree as a
// fallback.
func (l *Loader) resolveDir(path string) (string, error) {
	if path == l.ModPath {
		return l.ModDir, nil
	}
	if rest, ok := strings.CutPrefix(path, l.ModPath+"/"); ok {
		return filepath.Join(l.ModDir, filepath.FromSlash(rest)), nil
	}
	goroot := l.ctxt.GOROOT
	for _, dir := range []string{
		filepath.Join(goroot, "src", filepath.FromSlash(path)),
		filepath.Join(goroot, "src", "vendor", filepath.FromSlash(path)),
	} {
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("analysis: cannot resolve import %q (not in module %s or GOROOT)", path, l.ModPath)
}

// loadDir parses and type-checks the package in dir.
func (l *Loader) loadDir(dir, path string) (*Package, error) {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %v", dir, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) {
			pkg, err := l.load(p)
			if err != nil {
				return nil, err
			}
			return pkg.Types, nil
		}),
		Error: func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, typeErrs[0])
	}
	return &Package{
		ImportPath: path,
		Dir:        dir,
		Fset:       l.Fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return f(path)
}
