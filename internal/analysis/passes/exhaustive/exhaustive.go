// Package exhaustive reports switch statements over the repo's hand-rolled
// iota enums that neither cover every declared constant nor carry a default
// clause. The synthesizer's passes (tree edits, DeepEye filtering, NL
// editing, rendering) all dispatch on internal/ast enums such as ChartType,
// AggFunc and FilterOp; when a new variant is added to the grammar, this
// analyzer turns every switch that silently ignores it into a lint failure.
package exhaustive

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"

	"nvbench/internal/analysis"
)

// EnumPackageSuffixes scopes the check: only switches whose tag type is a
// named integer type declared in a package matching one of these suffixes
// are examined. The default covers the unified AST grammar package.
var EnumPackageSuffixes = []string{"internal/ast"}

// Analyzer is the exhaustive enum-switch check.
var Analyzer = &analysis.Analyzer{
	Name: "exhaustive",
	Doc: "switches over internal/ast enums must cover every constant or have a default\n\n" +
		"A named integer type with two or more package-level constants in a\n" +
		"matching package is treated as an enum. A switch over such a type\n" +
		"must either list a case for every declared constant value or carry\n" +
		"a default clause, so that adding a grammar variant cannot silently\n" +
		"fall through a synthesis pass.",
	Run: run,
}

func run(pass *analysis.Pass) []analysis.Diagnostic {
	analysis.Preorder(pass.Files, func(n ast.Node) {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return
		}
		named := enumType(pass.TypeOf(sw.Tag))
		if named == nil {
			return
		}
		consts := enumConstants(named)
		if len(consts) < 2 {
			return
		}
		covered := make(map[int64]bool)
		for _, stmt := range sw.Body.List {
			cc, ok := stmt.(*ast.CaseClause)
			if !ok {
				continue
			}
			if cc.List == nil {
				return // default clause: non-exhaustive coverage is deliberate
			}
			for _, e := range cc.List {
				if v := pass.Info.Types[e].Value; v != nil {
					if i, exact := constant.Int64Val(constant.ToInt(v)); exact {
						covered[i] = true
					}
				}
			}
		}
		var missing []string
		for _, c := range consts {
			if !covered[c.val] {
				missing = append(missing, c.name)
			}
		}
		if len(missing) > 0 {
			pass.Reportf(sw.Pos(), "switch over %s is not exhaustive: missing %s (add the cases or a default)",
				typeLabel(named), strings.Join(missing, ", "))
		}
	})
	return pass.Diagnostics()
}

// enumType returns the named type of an enum tag, or nil if the tag is not
// a named integer type declared in a matching package.
func enumType(t types.Type) *types.Named {
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	if !analysis.PathMatchesAny(obj.Pkg().Path(), EnumPackageSuffixes) {
		return nil
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return nil
	}
	return named
}

type enumConst struct {
	name string
	val  int64
}

// enumConstants lists the declared constants of the enum type, one entry per
// distinct value (aliases collapse onto the first name in scope order),
// sorted by value so diagnostics are stable.
func enumConstants(named *types.Named) []enumConst {
	scope := named.Obj().Pkg().Scope()
	byVal := make(map[int64]string)
	for _, name := range scope.Names() { // Names() is sorted
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		if v, exact := constant.Int64Val(constant.ToInt(c.Val())); exact {
			if _, seen := byVal[v]; !seen {
				byVal[v] = name
			}
		}
	}
	out := make([]enumConst, 0, len(byVal))
	for v, name := range byVal {
		out = append(out, enumConst{name: name, val: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].val < out[j].val })
	return out
}

func typeLabel(named *types.Named) string {
	obj := named.Obj()
	return fmt.Sprintf("%s.%s", obj.Pkg().Name(), obj.Name())
}
