// Package noprint forbids printing to os.Stdout from library packages
// (internal/...). Rendering and report code must write to an injected
// io.Writer so output is testable, redirectable and never interleaves with
// a CLI's own stdout protocol; only the cmd/ and examples/ entry points own
// the process's standard output.
package noprint

import (
	"go/ast"
	"go/types"
	"strings"

	"nvbench/internal/analysis"
)

// PathContains scopes the check to packages whose import path contains this
// substring. Binaries under cmd/ and examples/ legitimately own stdout.
var PathContains = "internal/"

// Analyzer is the stdout-printing check.
var Analyzer = &analysis.Analyzer{
	Name: "noprint",
	Doc: "internal packages must not print to os.Stdout\n\n" +
		"Flags fmt.Print, fmt.Printf and fmt.Println, and fmt.Fprint* calls\n" +
		"whose writer is os.Stdout, inside internal/... packages; pass an\n" +
		"io.Writer down from the command instead.",
	Run: run,
}

func run(pass *analysis.Pass) []analysis.Diagnostic {
	if !strings.Contains(pass.Pkg.Path()+"/", PathContains) {
		return nil
	}
	analysis.Preorder(pass.Files, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
			return
		}
		name := fn.Name()
		switch {
		case strings.HasPrefix(name, "Print"):
			pass.Reportf(call.Pos(), "fmt.%s prints to os.Stdout from internal package %s; write to an injected io.Writer", name, pass.Pkg.Name())
		case strings.HasPrefix(name, "Fprint") && len(call.Args) > 0 && isStdout(pass, call.Args[0]):
			pass.Reportf(call.Pos(), "fmt.%s to os.Stdout from internal package %s; write to an injected io.Writer", name, pass.Pkg.Name())
		}
	})
	return pass.Diagnostics()
}

// isStdout reports whether the expression denotes the os.Stdout variable.
func isStdout(pass *analysis.Pass, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	v, ok := pass.Info.Uses[sel.Sel].(*types.Var)
	return ok && v.Pkg() != nil && v.Pkg().Path() == "os" && v.Name() == "Stdout"
}
