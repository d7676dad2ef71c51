// Package faultsite guards the fault-injection registry invariant: every
// call to fault.Inject or fault.InjectContext must name a registered
// site, as a compile-time constant. The crash harness and the "*" plan
// wildcard both enumerate fault.Sites(), so an Inject call with an
// unregistered or runtime-built site string is a fault point the sweeps
// silently never exercise.
//
// The check is cross-package and uses package facts: analyzing the fault
// package itself exports a SitesFact listing the declared Site* constants
// (and flags duplicate site values in place); analyzing any other package
// imports that fact to validate Inject arguments. When the fact is
// unavailable — a run that never visited the fault package — the analyzer
// falls back to reading the Site* constants out of the imported package's
// type information, so the check never degrades to silence.
package faultsite

import (
	"go/ast"
	"go/constant"
	"go/types"
	"slices"
	"sort"
	"strings"

	"nvbench/internal/analysis"
)

// FaultPackageSuffixes lists the packages that define the injection-site
// registry (Site* string constants plus the Inject entry point).
var FaultPackageSuffixes = []string{"internal/fault"}

// SitePrefix is the naming convention for registered site constants.
const SitePrefix = "Site"

// SitesFact is the package fact the fault package exports: the sorted
// values of its Site* constants.
type SitesFact struct {
	Sites []string `json:"sites"`
}

// AFact marks SitesFact as a package fact.
func (*SitesFact) AFact() {}

// Analyzer is the registered-fault-site check.
var Analyzer = &analysis.Analyzer{
	Name: "faultsite",
	Doc: "fault.Inject and fault.InjectContext sites must be registered compile-time constants\n\n" +
		"The crash harness sweeps fault.Sites(); an Inject call whose site\n" +
		"is computed at runtime or not declared as a Site* constant in\n" +
		"internal/fault is an injection point no sweep will ever reach.",
	FactTypes: []analysis.Fact{(*SitesFact)(nil)},
	Run:       run,
}

func run(pass *analysis.Pass) []analysis.Diagnostic {
	// Test files are exempt: fault tests exercise unregistered sites and
	// runtime-built plans on purpose, and the fact must reflect only the
	// constants production code can import.
	files := nonTestFiles(pass)
	if analysis.PathMatchesAny(pass.Pkg.Path(), FaultPackageSuffixes) {
		exportSites(pass, files)
		return pass.Diagnostics()
	}
	checkInjectCalls(pass, files)
	return pass.Diagnostics()
}

// nonTestFiles filters out in-package _test.go files.
func nonTestFiles(pass *analysis.Pass) []*ast.File {
	var out []*ast.File
	for _, file := range pass.Files {
		if !strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			out = append(out, file)
		}
	}
	return out
}

// exportSites collects the package's Site* string constants into a
// SitesFact and flags duplicate site values — two constants with the same
// string would make plan specs ambiguous.
func exportSites(pass *analysis.Pass, files []*ast.File) {
	seen := map[string]string{} // value -> first constant name
	var sites []string
	for _, file := range files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if !strings.HasPrefix(name.Name, SitePrefix) || name.Name == SitePrefix {
						continue
					}
					c, ok := pass.Info.Defs[name].(*types.Const)
					if !ok || c.Val() == nil || c.Val().Kind() != constant.String {
						continue
					}
					value := constant.StringVal(c.Val())
					if first, dup := seen[value]; dup {
						pass.Reportf(name.Pos(), "duplicate fault site %q: already declared as %s", value, first)
						continue
					}
					seen[value] = name.Name
					sites = append(sites, value)
				}
			}
		}
	}
	sort.Strings(sites)
	if err := pass.ExportPackageFact(&SitesFact{Sites: sites}); err != nil {
		pass.Reportf(pass.Files[0].Pos(), "faultsite: %v", err)
	}
}

// injectArity maps each fault-package entry point to its argument count;
// the site is always the last argument.
var injectArity = map[string]int{"Inject": 1, "InjectContext": 2}

// checkInjectCalls validates every call to a fault package's Inject or
// InjectContext.
func checkInjectCalls(pass *analysis.Pass, files []*ast.File) {
	analysis.Preorder(files, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil || !analysis.PathMatchesAny(fn.Pkg().Path(), FaultPackageSuffixes) {
			return
		}
		if arity, entry := injectArity[fn.Name()]; !entry || len(call.Args) != arity {
			return
		}
		tv, ok := pass.Info.Types[call.Args[len(call.Args)-1]]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			pass.Reportf(call.Pos(), "fault.%s site must be a compile-time constant, not a runtime value", fn.Name())
			return
		}
		site := constant.StringVal(tv.Value)
		sites, known := registeredSites(pass, fn)
		if !known {
			return // no registry visible; nothing to check against
		}
		for _, s := range sites {
			if s == site {
				return
			}
		}
		pass.Reportf(call.Pos(), "fault.%s site %q is not registered in %s (known sites: %s)",
			fn.Name(), site, fn.Pkg().Path(), strings.Join(sites, ", "))
	})
}

// registeredSites resolves the site registry for the fault package that
// declares fn: preferably from the exported fact, otherwise from the Site*
// constants visible in the imported package's scope — a run that never
// analyzes the fault package itself (analysistest's single-package runs)
// has no fact. Either way each site value is listed once, sorted.
func registeredSites(pass *analysis.Pass, fn *types.Func) ([]string, bool) {
	var fact SitesFact
	if pass.ImportPackageFact(fn.Pkg().Path(), &fact) {
		return fact.Sites, true
	}
	scope := fn.Pkg().Scope()
	var sites []string
	for _, name := range scope.Names() {
		if !strings.HasPrefix(name, SitePrefix) || name == SitePrefix {
			continue
		}
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || c.Val() == nil || c.Val().Kind() != constant.String {
			continue
		}
		sites = append(sites, constant.StringVal(c.Val()))
	}
	if len(sites) == 0 {
		return nil, false
	}
	sort.Strings(sites)
	return slices.Compact(sites), true
}

// calleeFunc resolves the called function object, or nil for indirect
// calls, conversions and builtins.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.Info.Uses[id].(*types.Func)
	return fn
}
